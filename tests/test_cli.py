import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invsemi import cli
from invsemi import graph as gm
from invsemi.pinj import format_element


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_ms(obj):
    if isinstance(obj, dict):
        return {k: strip_ms(v) for k, v in obj.items() if k != "ms"}
    if isinstance(obj, list):
        return [strip_ms(v) for v in obj]
    return obj


# -- suites ------------------------------------------------------------------------


@pytest.mark.parametrize("name", cli.SUITE_ORDER)
def test_each_suite_passes_at_defaults(name):
    rep = cli.run_suite(name)
    assert rep.suite == name
    assert rep.checks, "a suite must make at least one check"
    failing = [c.claim for c in rep.checks if not c.ok]
    assert rep.passed, f"failing checks: {failing}"


def test_run_suite_unknown_name():
    with pytest.raises(cli.UsageError):
        cli.run_suite("nonsense")


def test_suite_report_schema():
    rep = cli.run_suite("lambda")
    d = rep.to_dict()
    assert set(d) == {"suite", "params", "checks", "pass"}
    assert d["pass"] is True
    for c in d["checks"]:
        assert set(c) == {"claim", "anchor", "expected", "computed",
                          "pass", "ms"}
        assert set(c["expected"]) == {"value", "provenance"}
        assert c["expected"]["provenance"] in ("reference", "derived",
                                               "trivial")
        assert isinstance(c["ms"], (int, float))


def test_verify_all_json(capsys):
    code, out, _ = run_main(capsys, ["verify", "all", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["suite"] for r in payload] == list(cli.SUITE_ORDER)
    assert all(r["pass"] for r in payload)


def test_verify_single_suite_text(capsys):
    code, out, _ = run_main(capsys, ["verify", "balanced-null"])
    assert code == 0
    assert "suite balanced-null" in out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.rstrip().endswith("=> pass")


def test_verify_suites_state_each_input_once(capsys):
    # a suite once ignored parameters it does not read: `verify sym-gap
    # --n 12` passed on the n=10 certificate
    for argv in (["verify", "sym-gap", "--n", "12"],
                 ["verify", "lambda", "--n", "3"],
                 ["verify", "properties", "--n", "7"],
                 ["verify", "balanced-null", "--seed", "1"]):
        code, _, err = run_main(capsys, argv)
        assert code == 2, argv
        assert "error:" in err and "does not read --" in err, argv
    with pytest.raises(cli.UsageError, match="does not read --max-n"):
        cli.run_suite("extremal", {"max_n": 5})
    # `verify all` gives each suite only the parameters it reads
    code, out, _ = run_main(capsys, ["verify", "all", "--max-n", "6",
                                     "--samples", "50", "--json"])
    assert code == 0
    params = {r["suite"]: r["params"] for r in json.loads(out)}
    assert params["lambda"] == {"max_n": 6}
    assert params["properties"] == {"samples": 50}
    assert all(p == {} for nm, p in params.items()
               if nm not in ("lambda", "properties"))


def test_infinity_serialized_for_odd_ground(capsys):
    code, out, _ = run_main(capsys,
                            ["verify", "full-diameter", "--n", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"]
    assert any(c["computed"] == "infinity" for c in payload["checks"])


def test_verify_detects_wrong_reference(capsys, monkeypatch):
    monkeypatch.setitem(cli.LAMBDA_TABLE, 11, 9999)
    code, out, _ = run_main(capsys, ["verify", "lambda", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["pass"]
    assert any(not c["pass"] for c in payload["checks"])


def test_budget_exit_code(capsys, monkeypatch):
    def trip(report, params, ctx):
        raise gm.BudgetExceeded(None)

    monkeypatch.setitem(cli._SUITES, "lambda", trip)
    code, _, err = run_main(capsys, ["verify", "lambda"])
    assert code == 3
    assert "budget exceeded" in err


def test_budget_progress_reaches_cli(capsys, monkeypatch):
    def trip(report, params, ctx):
        raise gm.BudgetExceeded(gm.CliqueCheckpoint(
            (4, 2), 1, None, ((2, 4),)))

    monkeypatch.setitem(cli._SUITES, "lambda", trip)
    code, _, err = run_main(capsys, ["verify", "lambda"])
    assert code == 3
    assert err.strip() == ("budget exceeded: time budget exceeded after 2/3"
                           " root branches; best clique so far has 2 vertices")


def test_mismatched_checkpoint_is_a_usage_error(capsys, monkeypatch):
    def resume(report, params, ctx):
        g = gm.build_graph(3, "nilpotent", center="ideal")
        gm.clique_number(g, resume=gm.CliqueCheckpoint(
            (g.num_vertices,), 1, None, ((0,),)))

    monkeypatch.setitem(cli._SUITES, "lambda", resume)
    code, _, err = run_main(capsys, ["verify", "lambda"])
    assert code == 2
    assert err.strip() == "error: checkpoint does not match this graph"


def test_import_needs_numpy_2(monkeypatch):
    # np.bitwise_count, which degrees and the peel call, came in numpy 2.0
    import importlib

    import numpy

    import invsemi
    with monkeypatch.context() as m:
        m.setattr(numpy, "__version__", "1.26.4")
        with pytest.raises(ImportError, match=r"numpy>=2\.0.*1\.26\.4"):
            importlib.reload(invsemi)
    importlib.reload(invsemi)


def test_verify_determinism(capsys):
    _, out1, _ = run_main(capsys, ["verify", "properties", "--json"])
    _, out2, _ = run_main(capsys, ["verify", "properties", "--json"])
    assert strip_ms(json.loads(out1)) == strip_ms(json.loads(out2))


# -- exit codes and guards ----------------------------------------------------------


def test_guard_exit_codes(capsys):
    for argv in (["verify", "extremal", "--n", "9"],
                 ["extremal", "--n", "9"],
                 ["graph", "--n", "8"],
                 ["verify", "full-diameter", "--n", "7"],
                 ["verify", "clique", "--n", "7"],
                 ["verify", "distance5", "--n", "12"],
                 ["centralizer", "--n", "8", "[1 2]"],
                 ["witness", "--n", "15", "--pair", "prime-power"]):
        code, _, err = run_main(capsys, argv)
        assert code == 2, argv
        assert "error:" in err and "--force" in err, argv
    code, _, err = run_main(capsys, ["centralizer", "--n", "13", "--force",
                                     "[1 2]"])
    assert code == 2
    assert "error:" in err
    # options a subcommand never reads are argparse errors, not ignored
    unread = {"elem": ("--ideal", "--budget-seconds", "--cache-dir",
                       "--force"),
              "centralizer": ("--ideal", "--budget-seconds", "--cache-dir"),
              "extremal": ("--ideal", "--cache-dir"),
              "witness": ("--budget-seconds", "--cache-dir"),
              "verify": ("--ideal",),
              "search-open": ("--ideal", "--budget-seconds", "--cache-dir",
                              "--force")}
    rest = {"elem": ["(1 2)"], "centralizer": ["(1 2)"],
            "witness": ["--pair", "extremal"], "verify": ["lambda"]}
    for command, options in unread.items():
        for option in options:
            flag = option if option == "--force" else f"{option}=1"
            argv = [command, "--n", "3", flag, *rest.get(command, [])]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err


def test_prime_power_below_two_is_usage_error():
    # n < 2 once hung in the prime-power factoring (n=1) or raised
    # ZeroDivisionError (n=0), so each run gets its own process and timeout
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for argv in (["verify", "distance5", "--n", "1", "--force"],
                 ["verify", "distance5", "--n", "0", "--force"],
                 ["witness", "--n", "1", "--pair", "prime-power", "--force"],
                 ["witness", "--n", "0", "--pair", "prime-power", "--force"]):
        proc = subprocess.run([sys.executable, "-m", "invsemi", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_balanced_null_is_guarded_above_eight():
    # n=9 once ran for more than two minutes, so it runs in its own process
    # with a timeout; the floor of 2 is checked with the other suites below
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "invsemi", "verify",
                           "balanced-null", "--n", "9"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "2 <= n <= 8" in proc.stderr
    assert cli.run_suite("balanced-null", {"n": 2}).passed


def test_explicit_zero_is_not_the_default(capsys):
    # an explicit 0 is a value: it must not fall back to the suite default
    for argv in (["verify", "extremal", "--n", "0"],
                 ["verify", "distance5", "--n", "0"],
                 ["verify", "clique", "--n", "0"],
                 ["verify", "clique", "--n", "1"]):
        code, _, err = run_main(capsys, argv)
        assert code == 2 and "error:" in err, argv
    rep = cli.run_suite("properties", {"samples": 0})
    assert rep.passed
    assert "0 random pairs" in rep.checks[0].claim


def test_force_keeps_the_lower_bound_of_a_suite(capsys):
    # --force lifts runtime guards only; below a suite's reference values
    # its hard-coded expectations would report false failures
    for suite, least in (("nilpotent-pairs", 3), ("full-diameter", 3),
                         ("ideal-diameters", 3), ("extremal", 3),
                         ("clique", 2), ("balanced-null", 2)):
        code, _, err = run_main(capsys, ["verify", suite, "--n",
                                         str(least - 1), "--force"])
        assert code == 2, suite
        assert "error:" in err and f"n >= {least}" in err, suite
    # the lambda suite's recurrence starts at 4
    for max_n in ("3", "0"):
        code, _, err = run_main(capsys, ["verify", "lambda", "--max-n",
                                         max_n, "--force"])
        assert code == 2 and "error:" in err and "n >= 4" in err
    code, out, _ = run_main(capsys, ["extremal", "--n", "2", "--force",
                                     "--json"])
    assert code == 0
    assert (json.loads(out)["max_order"], json.loads(out)["count"]) == (2, 2)


def test_extremal_below_two_points(capsys):
    # I(1) has no nonzero nilpotent: the one maximum clique is empty, and
    # its witness is the zero semigroup {0}
    code, out, _ = run_main(capsys, ["extremal", "--n", "1", "--force",
                                     "--json", "--list"])
    assert code == 0
    rep = json.loads(out)
    assert (rep["max_order"], rep["count"]) == (1, 1)
    assert rep["witnesses"] == [["n=1 order=1", "0"]]
    # an uncaught exception would propagate out of main
    code, _, _ = run_main(capsys, ["extremal", "--n", "0", "--force"])
    assert code in (0, 2)


def test_parse_error_exit_code(capsys):
    code, _, err = run_main(capsys, ["elem", "--n", "3", "((("])
    assert code == 2
    assert "error:" in err


def test_missing_n_exit_code(capsys):
    code, _, err = run_main(capsys, ["centralizer", "[1 2]"])
    assert code == 2
    assert "--n is required" in err


def test_unknown_suite_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_witness_without_arguments(capsys):
    code, _, err = run_main(capsys, ["witness", "--n", "4"])
    assert code == 2
    assert "give two elements" in err


# -- inspection commands -------------------------------------------------------------


def test_elem_inspect(capsys):
    code, out, _ = run_main(capsys, ["elem", "--n", "4", "(1 2 3)", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["element"] == "(1 2 3)"
    assert d["kind"] == "mixed" and d["rank"] == 3
    assert d["cycles"] == [[0, 1, 2]] and d["chains"] == []
    assert d["inverse"] == "(1 3 2)"


def test_elem_compose(capsys):
    code, out, _ = run_main(capsys, ["elem", "--n", "4", "[1 2]", "[2 3]",
                                     "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["ab"] == "[1 3]"
    assert d["ba"] == "0"
    assert d["commute"] is False


def test_elem_rejects_three_elements(capsys):
    code, out, err = run_main(capsys, ["elem", "--n", "4", "(1 2)", "(1 3)",
                                       "(1 4)"])
    assert code == 2 and out == ""
    assert "give one element (inspect) or two (compose)" in err
    assert "unpack" not in err


def test_centralizer_full_cycle(capsys):
    code, out, _ = run_main(capsys, ["centralizer", "--n", "4", "(1 2 3 4)",
                                     "--json", "--list"])
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 5
    assert sorted(d["elements"]) == d["elements"]
    assert "0" in d["elements"] and "id" in d["elements"]


def test_centralizer_list_guard(capsys):
    # order 101,817,089: refused before any element is built
    join16 = "|".join(f"({i} {i + 8})" for i in range(1, 9))
    code, out, err = run_main(capsys, ["centralizer", "--n", "16", join16,
                                       "--list"])
    assert code == 2 and out == ""
    assert "101817089" in err and "--force" in err
    code, out, _ = run_main(capsys, ["centralizer", "--n", "16", join16])
    assert code == 0 and "101817089" in out


def test_centralizer_general_element(capsys):
    code, out, _ = run_main(capsys, ["centralizer", "--n", "3", "[1 2]",
                                     "--json"])
    assert code == 0
    assert json.loads(out)["order"] > 2


def test_graph_summary_and_exports(capsys, tmp_path):
    save = tmp_path / "g3.bin"
    dot = tmp_path / "g3.dot"
    code, out, _ = run_main(capsys, ["graph", "--n", "3", "--diameter",
                                     "--clique", "--json",
                                     "--save", str(save), "--dot", str(dot)])
    assert code == 0
    d = json.loads(out)
    assert (d["vertices"], d["edges"]) == (32, 73)
    assert d["diameter"] == "infinity" and d["components"] > 1
    assert d["clique_number"] == 6
    assert save.exists() and dot.exists()
    assert gm.load_packed(save).num_vertices == 32


def test_graph_clique_is_the_least_maximum_clique(capsys):
    # the witness is maximum_cliques(g)[0], not whichever maximum clique
    # the greedy seed or the branch and bound met first
    code, out, _ = run_main(capsys, ["graph", "--n", "5", "--filter",
                                     "nilpotent", "--clique", "--json"])
    assert code == 0
    d = json.loads(out)
    g = gm.build_graph(5, "nilpotent", center="ideal")
    least = gm.maximum_cliques(g)[0]
    assert d["clique_number"] == len(least) == 12
    assert d["clique"] == ["[1 2]", "[1 3]", "[1 4]", "[5 2]", "[5 3]",
                           "[5 4]", "[1 2]|[5 3]", "[1 3]|[5 2]",
                           "[1 2]|[5 4]", "[1 4]|[5 2]", "[1 3]|[5 4]",
                           "[1 4]|[5 3]"]
    assert d["clique"] == [format_element(g.vertex_element(i))
                           for i in least]


def test_graph_filters(capsys):
    code, out, _ = run_main(capsys, ["graph", "--n", "4", "--filter",
                                     "nilpotent", "--json"])
    assert code == 0
    assert json.loads(out)["vertices"] == 72  # nilpotent count minus zero
    code, out, _ = run_main(capsys, ["graph", "--n", "4", "--filter",
                                     "permutation", "--json"])
    assert code == 0
    assert json.loads(out)["vertices"] == 23


def test_graph_filter_cap_and_force(capsys, monkeypatch):
    monkeypatch.setattr(gm, "VERTEX_CAP", 10)
    argv = ["graph", "--n", "4", "--filter", "nilpotent", "--json"]
    code, _, err = run_main(capsys, argv)
    assert code == 2 and "exceeds cap 10" in err
    code, out, _ = run_main(capsys, argv + ["--force"])
    assert code == 0 and json.loads(out)["vertices"] == 72


def test_graph_filter_goes_through_the_guard(capsys):
    # filtered graphs once skipped the n guard and the memo: the nilpotent
    # graph at n=7 built 37,632 vertices, and n=9 decoded all 17.6 M
    # elements of I(9) for 510 idempotents
    for argv in (["graph", "--n", "7", "--filter", "nilpotent"],
                 ["graph", "--n", "9", "--filter", "idempotent"]):
        code, _, err = run_main(capsys, argv)
        assert code == 2, argv
        assert "error:" in err and "0 <= n <= 6" in err, argv
    ctx = cli.CliContext()
    g = ctx.graph(4, filt="nilpotent")
    assert ctx.graph(4, filt="nilpotent") is g
    assert g.num_vertices == 72 and tuple(g.center_ids) == (0,)


def test_graph_ideal(capsys):
    code, out, _ = run_main(capsys, ["graph", "--n", "4", "--ideal", "2",
                                     "--diameter", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["diameter"] == 3
    code, _, err = run_main(capsys, ["graph", "--n", "4", "--ideal", "2",
                                     "--filter", "nilpotent"])
    assert code == 2 and "error:" in err


def test_ideal_graph_equals_induced_subgraph():
    ctx = cli.CliContext()
    for n in (4, 5):
        full = ctx.graph(n)
        ranks = (full.imgs != full.n).sum(axis=1)
        for r in range(1, n):
            g = ctx.graph(n, r)
            sub = gm.induced_subgraph(full, ranks <= r)
            assert g.label == f"rank{r}-ideal-n{n}"
            assert g.ids.tobytes() == sub.ids.tobytes()
            assert g.packed.tobytes() == sub.packed.tobytes()
            assert ctx.graph(n, r) is g
    with pytest.raises(cli.UsageError, match="--force"):
        cli.CliContext().graph(7, 3)


def test_graph_cache_round_trip(capsys, tmp_path):
    argv = ["graph", "--n", "4", "--json", "--cache-dir", str(tmp_path)]
    code, out1, _ = run_main(capsys, argv)
    assert code == 0
    cached = tmp_path / "icgr-full-n4.bin"
    assert cached.exists()
    code, out2, _ = run_main(capsys, argv)
    assert code == 0
    assert json.loads(out1) == json.loads(out2)


def test_graph_truncated_cache_is_usage_error(capsys, tmp_path):
    (tmp_path / "icgr-full-n4.bin").write_bytes(b"ICGR")
    code, _, err = run_main(capsys, ["graph", "--n", "4", "--diameter",
                                     "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "error:" in err and "truncated" in err


def test_graph_corrupt_cache_names_file_and_force(capsys, tmp_path):
    argv = ["graph", "--n", "4", "--json", "--cache-dir", str(tmp_path)]
    code, want, _ = run_main(capsys, argv)
    assert code == 0
    cached = tmp_path / "icgr-full-n4.bin"
    blob = bytearray(cached.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    cached.write_bytes(bytes(blob))
    code, _, err = run_main(capsys, argv)
    assert code == 2
    assert "error:" in err and "checksum" in err
    assert str(cached) in err and "--force" in err
    code, out, _ = run_main(capsys, argv + ["--force"])
    assert code == 0 and json.loads(out) == json.loads(want)
    code, out, _ = run_main(capsys, argv)
    assert code == 0 and json.loads(out) == json.loads(want)


def test_extremal_command(capsys):
    code, out, _ = run_main(capsys, ["extremal", "--n", "4", "--json",
                                     "--list"])
    assert code == 0
    d = json.loads(out)
    assert (d["max_order"], d["count"]) == (7, 6)
    assert len(d["witnesses"]) == 6


def test_witness_pairs(capsys):
    code, out, _ = run_main(capsys, ["witness", "--n", "5", "--pair",
                                     "extremal", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["a"] == "[1 2 3 4 5]" and d["b"] == "[5 4 3 2 1]"
    code, out, _ = run_main(capsys, ["witness", "--n", "9", "--pair",
                                     "prime-power", "--json"])
    assert code == 0
    code, out, _ = run_main(capsys, ["witness", "--n", "6", "--pair", "ideal",
                                     "--ideal", "4", "--json"])
    assert code == 0
    code, _, err = run_main(capsys, ["witness", "--n", "6", "--pair", "ideal"])
    assert code == 2 and "needs --ideal" in err


def test_witness_path_and_idempotent(capsys):
    code, out, _ = run_main(capsys, ["witness", "--n", "4", "[1 2 3 4]",
                                     "[4 3 2 1]", "--json"])
    assert code == 0
    d = json.loads(out)
    assert d["length"] == len(d["vertices"]) - 1 == 4
    code, out, _ = run_main(capsys, ["witness", "--n", "4", "--idempotent",
                                     "(1 2)"])
    assert code == 0
    assert out.strip() == "(1)|(2)"


def test_witness_idempotent_json(capsys):
    code, out, _ = run_main(capsys, ["witness", "--n", "4", "--idempotent",
                                     "(1 2)", "--json"])
    assert code == 0
    assert json.loads(out) == {"element": "(1 2)", "idempotent": "(1)|(2)"}


def test_search_open_command(capsys):
    code, out, _ = run_main(capsys, ["search-open", "--n", "6", "--samples",
                                     "10", "--seed", "1", "--json"])
    assert code == 0
    d = json.loads(out)
    assert sum(d["histogram"].values()) == 10


def test_balanced_null_n8_keeps_its_checks():
    rep = cli.run_suite("balanced-null", {"n": 8})
    assert rep.passed
    assert [(c.claim, c.anchor, c.provenance, c.expected, c.computed)
            for c in rep.checks] == [
        ("number of balanced block splits at n=8", "partition-count",
         "reference", 70, 70),
        ("every balanced instance is a null semigroup of the closed-form"
         " order", "null-flags", "trivial", True, True)]


def test_negative_samples_and_small_ground_are_usage_errors(capsys):
    for argv, words in ((["search-open", "--n", "4", "--samples", "-2"],
                         "samples >= 0"),
                        (["verify", "properties", "--samples", "-5"],
                         "samples >= 0"),
                        (["search-open", "--n", "1"], "n >= 2"),
                        (["search-open", "--n", "0"], "n >= 2"),
                        (["search-open", "--n", "-3"], "n >= 2")):
        code, out, err = run_main(capsys, argv)
        assert code == 2, argv
        assert "error:" in err and words in err, argv
        assert "Traceback" not in err and not out, argv
