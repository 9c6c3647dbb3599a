import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lamping.cli
import lamping.derivations
import lamping.semantics
from lamping.cli import main
from lamping.corpus import A
from lamping.derivations import ax, lam, show_derivation, weak
from lamping.pipeline import run_pipeline

ROOT = Path(__file__).resolve().parents[1]
RUNNING = str(ROOT / "corpus" / "running_example.eal")
# inputs that parse but fail a field check: A without `var`, RMu with a non-mu type
MISSING_FIELD = "(A {ty a})"
WRONG_FIELD_TYPE = "(RMu {ty a} (A {var x} {ty a}))"


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_prints_judgement(capsys):
    code, out, _ = _run(["check", RUNNING], capsys)
    assert code == 0
    assert "(\\x.f x x) (\\z.g z) : b" in out


# sha256 of the stdout of `check` and `check --annotate`, keyed file/command
CHECK_SHA256 = json.loads((Path(__file__).parent / "check_sha256.json").read_text())
CORPUS_FILES = sorted(p.name for p in (ROOT / "corpus").iterdir())


@pytest.mark.parametrize("command", ["check", "annotate"])
@pytest.mark.parametrize("name", CORPUS_FILES)
def test_check_output_matches_pinned_digest(capsys, name, command):
    path = ROOT / "corpus" / name
    argv = ["check", str(path), "--mode", path.suffix[1:]]
    code, out, _ = _run(argv + ["--annotate"] * (command == "annotate"), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_SHA256[f"{name}/{command}"]


# sha256 of the exit code and stdout of `run` (default probe depth) and of
# `trace` (first conclusion, all-empty context), keyed file/command/options
CLI_SHA256 = json.loads((Path(__file__).parent / "cli_sha256.json").read_text())


def cli_pin_runs():
    """(key, argv) for every pinned `run` report and `trace` transcript."""
    from lamping.derivations import parse_derivation
    from lamping.pipeline import prepared_graph
    for name in CORPUS_FILES:
        path = ROOT / "corpus" / name
        mode = path.suffix[1:]
        base = [str(path), "--mode", mode]
        for translation in ("lt", "dlt"):
            for strategy in ("sg", "pn-mlbl"):
                yield (f"{name}/run/{translation}/{strategy}",
                       ["run", *base, "--translation", translation, "--strategy", strategy])
            d = parse_derivation(path.read_text())
            net, lab, graph = prepared_graph(d, mode, translation)
            for on, structure in (("graph", graph), ("net", net)):
                yield (f"{name}/trace/{translation}/{on}",
                       ["trace", *base, "--translation", translation, "--on", on,
                        "--edge", structure.conclusions[0], "--ctx", "|" * lab.k])


def cli_digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_run_and_trace_outputs_match_pinned_digests(capsys):
    got = {}
    for key, argv in cli_pin_runs():
        code, out, _ = _run(argv, capsys)
        got[key] = cli_digest(code, out)
    assert got == CLI_SHA256


def test_run_report_and_exit_code(capsys):
    code, out, _ = _run(["run", RUNNING, "--translation", "dlt"], capsys)
    assert code == 0
    assert "verdict pass" in out
    assert "readback f (\\x0.g x0) (\\x1.g x1)" in out
    assert "steps.total 2" in out
    assert "weight 2" in out


def test_run_deterministic(capsys):
    _, out1, _ = _run(["run", RUNNING], capsys)
    _, out2, _ = _run(["run", RUNNING], capsys)
    assert out1 == out2


def test_run_reports_table_probe(capsys):
    code, out, _ = _run(["run", RUNNING, "--probe-depth", "3"], capsys)
    assert code == 0
    assert "semantics.probe_depth 3" in out
    assert "semantics.table_preserved true" in out


def test_run_identity_has_no_copies_or_fans(capsys):
    path = str(ROOT / "corpus" / "identity.eal")
    code, out, _ = _run(["run", path], capsys)
    assert code == 0
    assert "steps.copies 0" in out
    assert "graph.size 1" in out
    assert "readback \\x0.x0" in out


def test_run_lal_mode(capsys):
    path = str(ROOT / "corpus" / "lal_list_iterate.lal")
    code, out, _ = _run(["run", path, "--mode", "lal"], capsys)
    assert code == 0
    assert "verdict pass" in out


def test_run_pn_strategy(capsys):
    code, out, _ = _run(["run", RUNNING, "--strategy", "pn-mlbl"], capsys)
    assert code == 0
    assert "proofnet.steps 2" in out
    assert "verdict pass" in out


def test_trace_paper_run(capsys):
    code, out, _ = _run(["trace", RUNNING, "--edge", "f", "--ctx", "|pq"], capsys)
    assert code == 0
    assert out.strip().endswith("reached g [p|q]")


def test_trace_identity_from_empty_context(capsys):
    path = str(ROOT / "corpus" / "identity.eal")
    code, out, _ = _run(["trace", path, "--edge", "main", "--ctx", ""], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # one position, then the stuck report
    assert lines[-1] == "stuck: empty-mult"


def test_trace_out_of_fuel(capsys):
    code, out, _ = _run(["trace", RUNNING, "--edge", "f", "--ctx", "|pq",
                         "--max-steps", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["1.pr -> [|pq]", "2.p -> [|q]", "stuck: fuel exhausted"]


def test_trace_into_weakening(capsys):
    path = str(ROOT / "corpus" / "weakened_app.eal")
    # routing the argument into the lambda that erases its variable
    code, out, _ = _run(["trace", path, "--edge", "g", "--ctx", "p"], capsys)
    assert code == 0
    assert out.strip().endswith("stuck: weakening")


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eal"
    bad.write_text("(Nonsense)")
    code, _, err = _run(["check", str(bad)], capsys)
    assert code == 2

    ill = tmp_path / "ill.eal"
    # contraction on a non-! hypothesis parses but fails the checker
    ill.write_text("""
(RLolli {var z}
  (X {a z1} {b z2} {z z}
    (LLolli {fun g} {var h}
      (A {var z1} {ty a})
      (LLolli {fun h} {var u}
        (A {var z2} {ty a})
        (A {var u} {ty b})))))
""")
    code, _, err = _run(["check", str(ill)], capsys)
    assert code == 2

    missing = tmp_path / "missing.eal"
    missing.write_text(MISSING_FIELD)
    wrong = tmp_path / "wrong.eal"
    wrong.write_text(WRONG_FIELD_TYPE)
    same = tmp_path / "same.eal"
    # a contraction whose two premises are one variable
    same.write_text("(X {a x} {b x} {z z} (W {var x} {ty !a} (A {var y} {ty a})))")
    undecodable = tmp_path / "undecodable.eal"
    undecodable.write_bytes(b"\xff\xfe(A {var x} {ty a})")
    for path in (bad, ill, missing, wrong, same, undecodable):
        for argv in (["check"], ["run"], ["trace", "--edge", "main", "--ctx", ""]):
            code, out, err = _run(argv[:1] + [str(path)] + argv[1:], capsys)
            assert (code, out) == (2, ""), (argv, path.name)
            assert err.startswith("error: "), (argv, path.name)


@pytest.mark.parametrize("argv,checks,walks", [
    (["run"], 1, 2),  # the check builds the net; the subject's free variables
    (["run", "--strategy", "pn-mlbl"], 1, 2),
    # the .dot structures are built again, and building checks
    (["run", "--dot", "DIR"], 2, 3),
    (["check"], 1, 2),
    (["check", "--annotate"], 1, 3),  # and every node's subject
    (["trace", "--edge", "f", "--ctx", "|pq"], 1, 1),
], ids=["run", "run-pn", "run-dot", "check", "check-annotate", "trace"])
def test_each_command_checks_as_few_times_as_it_can(monkeypatch, capsys, tmp_path, argv,
                                                     checks, walks):
    """Checks are counted as `_check_all` calls and walks over the whole
    derivation as `_post_order` calls."""
    argv = [str(tmp_path / "dot") if a == "DIR" else a for a in argv]
    calls = []
    subjects = []
    orders = []
    check_all = lamping.derivations._check_all
    subject = lamping.derivations._subject
    post_order = lamping.derivations._post_order

    def counting(*args):
        calls.append(args)
        return check_all(*args)

    def building(*args):
        subjects.append(args)
        return subject(*args)

    def walking(d):
        orders.append(d)
        return post_order(d)

    monkeypatch.setattr(lamping.derivations, "_check_all", counting)
    monkeypatch.setattr(lamping.derivations, "_subject", building)
    monkeypatch.setattr(lamping.derivations, "_post_order", walking)
    code, _, _ = _run(argv[:1] + [RUNNING] + argv[1:], capsys)
    assert code == 0
    assert len(calls) == checks
    assert len(orders) == walks
    if argv[0] == "trace":
        assert subjects == []  # no step of a token run reads the subject


def test_checking_builds_no_net_unless_given_one(monkeypatch, corpus):
    """Checking, annotating, printing with judgements and `dapp` make no
    proof-net node."""
    from lamping.derivations import check_annotated, check_derivation, dapp
    from lamping.proofnets import ProofNet
    added = []
    add_node = ProofNet.add_node

    def adding(self, kind):
        added.append(kind)
        return add_node(self, kind)

    monkeypatch.setattr(ProofNet, "add_node", adding)
    for mode, d in corpus.values():
        check_derivation(d, mode)
        check_annotated(d, mode)
        show_derivation(d, judgements=True, mode=mode)
    _, two = corpus["church2"]
    dapp(two, two, "t")
    assert added == []
    ProofNet().node("W")
    assert added == ["W"]  # the count sees a net being built


@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--strategy", "pn-mlbl"], ["check"], ["check", "--annotate"],
    ["trace", "--edge", "f", "--ctx", "|pq"],
], ids=["run", "run-pn", "check", "check-annotate", "trace"])
def test_each_command_parses_its_file_once(monkeypatch, capsys, argv):
    """One `lamping.cli.parse_derivation` call per command, the call that
    the benchmark times as the parse."""
    calls = []
    parse = lamping.cli.parse_derivation

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(lamping.cli, "parse_derivation", counting)
    code, _, _ = _run(argv[:1] + [RUNNING] + argv[1:], capsys)
    assert code == 0
    assert calls == [Path(RUNNING).read_text()]


def test_pn_mlbl_reports_graph_bounds_as_not_applicable(capsys):
    """The step and size bounds are about sharing-graph rewriting, which
    the pn-mlbl route does not do; it must not pass them vacuously."""
    path = str(ROOT / "corpus" / "two_compose_two_applied.eal")
    code, out, _ = _run(["run", path, "--strategy", "pn-mlbl"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "proofnet.steps 14" in lines
    assert "bound.steps_ok n/a" in lines
    assert "bound.size_ok n/a" in lines
    assert "weight n/a" in lines
    assert "verdict pass" in lines
    code, out, _ = _run(["run", path], capsys)
    assert code == 0
    assert "bound.steps_ok true" in out.splitlines()


def test_mutated_inputs_end_in_an_exit_code(tmp_path, capsys):
    """400 seeded single-character substitutions, deletions and insertions
    on a corpus file: each run passes, fails or is rejected as input."""
    text = Path(RUNNING).read_text()
    alphabet = sorted(set(text))
    rng = random.Random(0)
    path = tmp_path / "mutant.eal"
    escapes = []
    for _ in range(400):
        i, op, c = rng.randrange(len(text)), rng.choice("sdi"), rng.choice(alphabet)
        mutant = text[:i] + ("" if op == "d" else c) + text[i + (op != "i"):]
        path.write_text(mutant)
        try:
            code = main(["run", str(path)])
        except Exception as e:
            escapes.append((mutant, repr(e)))
            continue
        assert code in (0, 1, 2), mutant
    capsys.readouterr()
    assert escapes == []


@pytest.mark.parametrize("text", [MISSING_FIELD, WRONG_FIELD_TYPE])
def test_malformed_fields_rejected_under_optimize(tmp_path, text):
    """Field checks must not be asserts, which `python -O` removes."""
    path = tmp_path / "bad.eal"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-O", "-m", "lamping.cli", "run", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: at node ")


def test_deeply_nested_input_is_an_input_error(tmp_path):
    """Derivations are walked with explicit stacks, so 1000 nested
    weakenings check and run. A type under 3000 `!` parses, but the EAL
    check's `contains_para` recurses once per level of it and runs out of
    Python's recursion limit: an input error, not a traceback."""
    weakenings = "(A {var x} {ty a})"
    for i in range(1000):
        weakenings = f"(W {{var y{i}}} {{ty a}} {weakenings})"
    bangs = "(A {var x} {ty " + "!" * 3000 + "a})"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, text in (("weakenings", weakenings), ("bangs", bangs)):
        path = tmp_path / f"{name}.eal"
        path.write_text(text)
        for command in ("check", "run"):
            proc = subprocess.run([sys.executable, "-m", "lamping.cli", command, str(path)],
                                  capture_output=True, text=True, env=env)
            assert "Traceback" not in proc.stderr, (name, command)
            if name == "weakenings":
                assert (proc.returncode, proc.stderr) == (0, ""), command
                if command == "check":
                    assert proc.stdout.startswith("x:a, y0:a, y1:a, ")
                else:
                    assert "verdict pass" in proc.stdout.splitlines()
            else:
                assert (proc.returncode, proc.stdout) == (2, ""), command
                assert proc.stderr.startswith(f"error: {path}: "), command
                assert "nested too deeply" in proc.stderr, command


@pytest.mark.parametrize("strategy", ["sg", "pn-mlbl"])
def test_step_budget_run_out_is_an_error_line(strategy):
    """running_example needs 2 steps on either route; a budget of 1 ends
    in exit 2 with one error line, not a traceback and not a failing
    verdict."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "lamping.cli", "run", RUNNING,
                           "--strategy", strategy, "--max-steps", "1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {RUNNING}: normalization exceeded 1 steps\n"


@pytest.mark.parametrize("argv", [
    ["--probe-depth", "4"],  # the semantics probe runs out first
    ["--probe-depth", "0"],  # the weight
    ["--probe-depth", "0", "--strategy", "pn-mlbl"],  # readback
], ids=["probe", "weight", "readback"])
def test_walk_budget_run_out_is_an_error_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(lamping.semantics, "WALK_BUDGET", 3)
    code, out, err = _run(["run", RUNNING] + argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {RUNNING}: ")
    assert "exceeded 3 token steps" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", [65, 200])
def test_readback_has_no_abstraction_cap(tmp_path, capsys, n):
    """\\x1...\\xn.x1: x2..xn are weakened, then all are abstracted."""
    d = ax("x1", A)
    for i in range(2, n + 1):
        d = weak(f"x{i}", A, d)
    for i in range(n, 0, -1):
        d = lam(f"x{i}", d)
    assert run_pipeline(d).verdict
    path = tmp_path / f"abs{n}.eal"
    path.write_text(show_derivation(d))
    code, out, _ = _run(["run", str(path)], capsys)
    assert code == 0
    assert "verdict pass" in out.splitlines()


def test_readme_command_lines_run(monkeypatch, tmp_path, capsys):
    """Every `lamping ...` line of README's command-line block exits 0."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("lamping ")]
    assert len(commands) >= 5
    monkeypatch.chdir(ROOT)
    for argv in commands:
        if "--dot" in argv:
            argv[argv.index("--dot") + 1] = str(tmp_path / "dot")
        code, _, err = _run(argv, capsys)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_step_budget_below_one_is_rejected(budget, capsys):
    code, out, err = _run(["run", RUNNING, "--max-steps", budget], capsys)
    assert (code, out) == (2, "")
    assert "--max-steps: must be at least 1" in err


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_negative_probe_depth_is_rejected(depth, capsys):
    code, out, err = _run(["run", RUNNING, "--probe-depth", depth], capsys)
    assert (code, out) == (2, "")
    assert "--probe-depth: must be at least 0" in err


def test_probe_depth_zero_skips_the_probe(capsys):
    code, out, _ = _run(["run", RUNNING, "--probe-depth", "0"], capsys)
    assert code == 0
    assert "semantics.table_preserved" not in out


def test_dot_export(tmp_path, capsys):
    code, _, _ = _run(["run", RUNNING, "--dot", str(tmp_path / "dots")], capsys)
    assert code == 0
    for name in ("proofnet.dot", "graph.dot", "normal.dot"):
        assert (tmp_path / "dots" / name).exists()


def test_console_script_installed():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "lamping.cli", "run", RUNNING],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict pass" in proc.stdout
