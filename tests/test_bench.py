import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dynbc import (
    DynGraph,
    SamplingParams,
    apply_batch,
    brandes_exact,
    build_scenario,
    generate,
    init_bc,
    load_edge_list,
    rank_error,
    run_experiment,
    update_bc,
)
from dynbc.bench import ScenarioSpec
from dynbc.cli import main as cli_main
from dynbc.errors import (
    InvalidParams,
    NonPositiveWeight,
    NotEnoughEdges,
    ParseError,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_plain_triangle(tmp_path):
    path = write(tmp_path, "tri.txt", "# comment\n0 1\n1 2\n2 0\n")
    g, events = load_edge_list(path)
    assert g.n == 3 and g.m == 3
    assert len(events) == 3
    assert [ev.timestamp for ev in events] == sorted(ev.timestamp for ev in events)


def test_load_collapses_multiplicity_to_inverse_weight(tmp_path):
    lines = "\n".join(["3 7 1 %d" % t for t in (4, 1, 3, 2)])
    path = write(tmp_path, "multi.txt", lines + "\n")
    g, events = load_edge_list(path, fmt="temporal", weighted=True)
    assert g.n == 2 and g.m == 1
    assert g.edge_weight(0, 1) == 0.25
    assert len(events) == 1
    assert events[0].timestamp == 1  # earliest arrival wins


def test_load_temporal_sorts_by_timestamp(tmp_path):
    text = "1 2 1 30\n2 3 1 10\n3 4 1 20\n"
    path = write(tmp_path, "temporal.txt", text)
    _, events = load_edge_list(path, fmt="temporal")
    stamps = [ev.timestamp for ev in events]
    assert stamps == sorted(stamps) == [10, 20, 30]


def test_load_temporal_keeps_timestamps_above_2_pow_53(tmp_path):
    # nanosecond Unix times exceed 2**53, where a float round trip collapses
    # neighbours; decimal and exponent forms still truncate
    big = 2**53
    text = f"1 2 1 {big + 1}\n2 3 1 {big}\n3 4 1 7.9\n4 5 1 2e1\n"
    path = write(tmp_path, "ns.txt", text)
    _, events = load_edge_list(path, fmt="temporal")
    assert [ev.timestamp for ev in events] == [7, 20, big, big + 1]
    assert [(ev.u, ev.v) for ev in events][2:] == [(1, 2), (0, 1)]


def test_load_errors(tmp_path):
    bad = write(tmp_path, "bad.txt", "0 1\nnot numbers here extra\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(bad)
    assert ":2" in str(err.value)
    neg = write(tmp_path, "neg.txt", "0 1 -2\n")
    with pytest.raises(NonPositiveWeight):
        load_edge_list(neg, weighted=True)


@pytest.mark.parametrize("stamp", ["inf", "-3"])
def test_load_rejects_bad_timestamp_with_file_and_line(tmp_path, stamp):
    path = write(tmp_path, "stamps.txt", f"0 1 1 5\n1 2 1 {stamp}\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(path, fmt="temporal")
    assert f"{path}:2: " in str(err.value)


def test_non_utf8_edge_list_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes("0 1\n1 2\n".encode("utf-16"))  # starts ff fe
    with pytest.raises(ParseError) as err:
        load_edge_list(str(path))
    assert f"{path}:1: " in str(err.value)
    with pytest.raises(SystemExit) as done:
        cli_main(["exact", "--graph", str(path)])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dynbc: error: {path}:1: ") and "Traceback" not in err


def test_load_rejects_non_finite_weights(tmp_path):
    for word in ("inf", "nan"):
        path = write(tmp_path, f"{word}.txt", f"0 1 1\n1 2 {word}\n")
        with pytest.raises(NonPositiveWeight) as err:
            load_edge_list(path, weighted=True)
        assert ":2" in str(err.value)


def test_scenario_spec_validation():
    with pytest.raises(InvalidParams):
        ScenarioSpec("real", 4, [3])
    with pytest.raises(InvalidParams):
        ScenarioSpec("real", 4, [8])  # x below the largest batch
    with pytest.raises(InvalidParams):
        ScenarioSpec("sideways", 4, [4])
    ScenarioSpec("random", 8, [1, 4, 8])


def test_real_scenario_reconstructs_edges(tmp_path):
    rng = random.Random(0)
    lines = []
    t = 0
    for u in range(12):
        for v in range(u + 1, 12):
            if rng.random() < 0.4:
                t += 1
                lines.append(f"{u} {v} 1 {t}")
    path = write(tmp_path, "real.txt", "\n".join(lines) + "\n")
    g, events = load_edge_list(path, fmt="temporal")
    spec = ScenarioSpec("real", 8, [4], seed=3)
    initial, batches = build_scenario(g, spec, 4, events=events)
    assert initial.m == g.m - 8
    assert [len(b) for b in batches] == [4, 4]
    stamps = [ev.timestamp for b in batches for ev in b]
    assert stamps == sorted(stamps)
    replay = initial.copy()
    for b in batches:
        apply_batch(replay, b)
    assert sorted(replay.edges()) == sorted(g.edges())


def test_real_scenario_batch_size_one_gives_singletons(tmp_path):
    path = write(tmp_path, "chain.txt", "\n".join(f"{i} {i+1} 1 {i}" for i in range(10)))
    g, events = load_edge_list(path, fmt="temporal")
    spec = ScenarioSpec("real", 8, [1], seed=1)
    _, batches = build_scenario(g, spec, 1, events=events)
    assert len(batches) == 8
    assert all(len(b) == 1 for b in batches)


def test_random_scenario_events_are_applicable():
    g = generate("erdos-renyi", n=30, p=0.2, seed=5)
    spec = ScenarioSpec("random", 16, [4], seed=9)
    initial, batches = build_scenario(g, spec, 4)
    assert sum(len(b) for b in batches) == 16
    replay = initial.copy()
    for b in batches:
        apply_batch(replay, b)  # validity is the assertion
    again_initial, again_batches = build_scenario(g, spec, 4)
    assert [[(e.u, e.v, e.op) for e in b] for b in batches] == [
        [(e.u, e.v, e.op) for e in b] for b in again_batches
    ]


@pytest.mark.parametrize("directed", [False, True])
def test_random_scenario_batches_touch_each_pair_once(directed):
    # dense batches on small graphs, so deletions often find few eligible
    # edges and some runs stop early with none left
    stopped_early = 0
    for seed in range(40):
        g = generate("erdos-renyi", n=8, p=0.3, seed=seed, directed=directed)
        if g.m < 4:
            continue
        x = 4 if seed % 2 else g.m
        b = 1 << (x.bit_length() - 1)
        spec = ScenarioSpec("random", x, [b], seed=seed)
        initial, batches = build_scenario(g, spec, b)
        stopped_early += sum(map(len, batches)) < x
        replay = initial.copy()
        for batch in batches:
            keys = [(e.u, e.v) if directed else (min(e.u, e.v), max(e.u, e.v))
                    for e in batch]
            assert len(set(keys)) == len(keys)
            for ev in batch:
                if ev.op == "delete":
                    assert replay.has_edge(ev.u, ev.v)
                    replay.delete_edge(ev.u, ev.v)
                else:
                    assert not replay.has_edge(ev.u, ev.v)
                    replay.insert_edge(ev.u, ev.v, ev.weight)
    assert stopped_early > 0


def test_weights_scenario_factors_in_open_interval():
    g = generate("erdos-renyi", n=20, p=0.3, seed=2, weighted=True)
    weights = {(u, v): w for u, v, w in g.edges()}
    spec = ScenarioSpec("weights", 16, [8], seed=4)
    _, batches = build_scenario(g, spec, 8)
    seen = 0
    for b in batches:
        for ev in b:
            seen += 1
            assert ev.op == "set-weight" and ev.weight > 0
            ratio = ev.weight / weights[(min(ev.u, ev.v), max(ev.u, ev.v))]
            assert 0.0 < ratio < 2.0
    assert seen == 16
    unweighted = generate("erdos-renyi", n=20, p=0.3, seed=2)
    with pytest.raises(InvalidParams):
        build_scenario(unweighted, spec, 8)


def test_not_enough_edges():
    g = generate("path", n=4)
    with pytest.raises(NotEnoughEdges):
        build_scenario(g, ScenarioSpec("random", 8, [8], seed=0), 8)


def test_rank_error_examples():
    exact = [0.5, 0.4, 0.3, 0.2, 0.1]
    assert set(rank_error(exact, list(exact)).values()) == {1.0}
    # push the true-rank-2 node down to estimated rank 4
    approx = [0.5, 0.15, 0.3, 0.2, 0.1]
    assert rank_error(exact, approx)[1] == 2.0
    # symmetric direction: true rank 4 estimated rank 2
    approx2 = [0.5, 0.4, 0.3, 0.45, 0.1]
    assert rank_error(exact, approx2)[3] == 2.0
    top = rank_error(exact, approx, top_k=2)
    assert set(top) == {0, 1}


def test_rank_error_breaks_ties_by_node_index():
    exact = [0.2, 0.2, 0.1]
    approx = [0.2, 0.2, 0.1]
    errs = rank_error(exact, approx)
    assert errs == {0: 1.0, 1: 1.0, 2: 1.0}


def test_run_experiment_rows_and_determinism():
    g = generate("dorogovtsev-mendes", n=40, seed=11)
    spec = ScenarioSpec("random", 8, [2, 4], runs=3, seed=6)
    params = SamplingParams(0.3, 0.3, seed=1)
    reports = run_experiment(g, spec, params, "da", with_exact=True)
    assert len(reports) == 6  # two batch sizes, three runs
    for rep in reports:
        assert rep.speedup == rep.t_static / rep.t_dynamic
        assert rep.max_abs_error is not None
        assert rep.top10_max_rank_error >= 1.0
    again = run_experiment(g, spec, params, "da", with_exact=True)
    strip = lambda r: {
        k: v
        for k, v in r.row().items()
        if k not in ("t_dynamic", "t_static", "speedup")
    }
    assert [strip(r) for r in reports] == [strip(r) for r in again]


def test_run_experiment_reports_initial_r_and_final_bound():
    # on this input the churn lifts the bound and r grows; the row shows it
    g = generate("dorogovtsev-mendes", n=40, seed=11)
    spec = ScenarioSpec("random", 8, [4], runs=1, seed=3)
    params = SamplingParams(0.3, 0.3, seed=1)
    (rep,) = run_experiment(g, spec, params, "da")
    assert rep.r_initial < rep.r_final
    initial, batches = build_scenario(g, spec, 4)
    g_run = initial.copy()
    st = init_bc(g_run, params, "da")
    assert rep.r_initial == st.r
    for batch in batches:
        update_bc(g_run, st, apply_batch(g_run, batch))
    assert (rep.r_final, rep.vd_bound_final) == (st.r, st.vd_bound)


def test_run_experiment_exact_threshold_disables_errors():
    g = generate("dorogovtsev-mendes", n=40, seed=11)
    spec = ScenarioSpec("random", 4, [4], runs=1, seed=6)
    params = SamplingParams(0.3, 0.3, seed=1)
    reports = run_experiment(g, spec, params, "da", with_exact=True, exact_threshold=10)
    assert reports[0].max_abs_error is None


def test_cli_generate_exact_vd_and_run(tmp_path):
    graph_file = str(tmp_path / "g.txt")
    assert (
        cli_main(
            [
                "generate",
                "--model",
                "dorogovtsev-mendes",
                "--n",
                "30",
                "--seed",
                "3",
                "--out",
                graph_file,
            ]
        )
        == 0
    )
    g, _ = load_edge_list(graph_file)
    assert g.n == 30 and g.m == 57

    exact_out = str(tmp_path / "exact.jsonl")
    assert (
        cli_main(
            [
                "exact",
                "--graph",
                graph_file,
                "--output-format",
                "jsonl",
                "--out",
                exact_out,
            ]
        )
        == 0
    )
    rows = [json.loads(line) for line in open(exact_out)]
    assert len(rows) == 30
    bc = brandes_exact(g)
    assert rows[0]["score"] == pytest.approx(bc[0])

    vd_out = str(tmp_path / "vd.jsonl")
    assert (
        cli_main(
            [
                "vd-bounds",
                "--graph",
                graph_file,
                "--output-format",
                "jsonl",
                "--out",
                vd_out,
            ]
        )
        == 0
    )
    row = json.loads(open(vd_out).read())
    assert row["vd_lower_sampled"] <= row["vd_upper"]
    assert row["weak_component_bound"] == 30

    run_out = str(tmp_path / "runs.csv")
    assert (
        cli_main(
            [
                "run",
                "--graph",
                graph_file,
                "--mode",
                "da",
                "--scenario",
                "random",
                "--x",
                "4",
                "--batch-sizes",
                "2",
                "--runs",
                "2",
                "--seed",
                "5",
                "--epsilon",
                "0.3",
                "--delta",
                "0.3",
                "--with-exact",
                "--out",
                run_out,
            ]
        )
        == 0
    )
    lines = open(run_out).read().strip().splitlines()
    assert len(lines) == 3  # header plus two runs
    assert lines[0].startswith("scenario,mode,batch_size,run")


def test_cli_user_errors_exit_2_without_traceback(tmp_path, capsys):
    graph_file = write(tmp_path, "p.txt", "".join(f"{i} {i + 1}\n" for i in range(9)))
    run = ["run", "--x", "4", "--batch-sizes", "2", "--runs", "1"]
    cases = [
        (["--graph", graph_file, "--mode", "da", "--scenario", "weights"],
         "weighted graph"),
        (["--graph", str(tmp_path / "missing.txt"), "--mode", "da"],
         "No such file"),
        (["--graph", graph_file, "--mode", "ia", "--scenario", "random"],
         "deletion"),
    ]
    for args, words in cases:
        with pytest.raises(SystemExit) as done:
            cli_main(run + args)
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("dynbc: error: ") and words in err
        assert "Traceback" not in err
    with pytest.raises(SystemExit) as done:
        cli_main(["run", "--graph", graph_file, "--mode", "da", "--x", "4",
                  "--batch-sizes", "1,x"])
    assert done.value.code == 2
    assert "--batch-sizes" in capsys.readouterr().err


def test_cli_vd_bounds_rejects_negative_samples(tmp_path, capsys):
    graph_file = write(tmp_path, "p.txt", "0 1\n1 2\n")
    with pytest.raises(SystemExit) as done:
        cli_main(["vd-bounds", "--graph", graph_file, "--samples", "-1"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("dynbc: error: ") and "--samples" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_generate_rejects_unused_options(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    for extra, word in ((["--p", "0.5"], "'p'"), (["--directed"], "'directed'")):
        with pytest.raises(SystemExit) as done:
            cli_main(["generate", "--model", "path", "--n", "5", "--out", out] + extra)
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("dynbc: error: ") and word in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "g.txt").exists()


def test_perfbench_selftest_passes():
    # the benchmark's tracer patches names inside the package; its self-test
    # fails when a change to the package breaks one of those hooks
    selftest = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
    done = subprocess.run(
        [sys.executable, str(selftest)], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
