from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs():
    # the first python block under "Library quickstart", run as written
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    assert len(namespace["approx"]) == len(namespace["exact"]) == 1000
