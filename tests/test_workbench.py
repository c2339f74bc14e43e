"""Tests for the catalog, run configuration, reports, and the CLI."""

import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

import projrep
from projrep import catalog as catalog_module
from projrep.catalog import catalog, coclass_contexts, entry, get_group
from projrep.cli import main
from projrep.errors import (
    ConfigError,
    CrossCheckMismatch,
    ParseError,
    UnknownGroup,
)
from projrep.groups import is_solvable, is_p_solvable, parse_group_json
from projrep import tolerances, workbench
from projrep.tolerances import TOLERANCES
from projrep.workbench import (
    RunConfig,
    _task_seed,
    _worker_count,
    contexts_for,
    degrees_report,
    run,
)


def test_catalog_contents():
    names = {e.name for e in catalog()}
    required = {"C1", "C24", "C2xC2", "C2xC4", "C3xC3", "D3", "D12", "Q8",
                "Q16", "S3", "S4", "A4", "A5", "SL(2,3)", "SL(2,5)", "C7:C3",
                "C5:C4", "E27+", "E27-"}
    assert required <= names
    assert all(e.order <= 200 for e in catalog())


def test_catalog_self_checks():
    for name in ("A5", "SL(2,3)", "Q16", "E27-", "C5xC5:C4"):
        e = entry(name)
        G = get_group(name)
        assert G.order == e.order
        assert is_solvable(G) == e.solvable


def test_catalog_self_check_failure_is_a_typed_error(monkeypatch, capsys):
    from projrep.cli import entry as cli_entry
    wrong = [catalog_module._perm_entry("C5?", 6, True, [[2, 3, 4, 5, 1]]),
             catalog_module._perm_entry("A5?", 60, True,
                                        catalog_module.A5_PERM)]
    monkeypatch.setattr(catalog_module, "_CATALOG", catalog() + wrong)
    with pytest.raises(CrossCheckMismatch, match="solvability"):
        get_group("A5?")
    monkeypatch.setattr(sys, "argv", ["projrep", "multiplier", "C5?"])
    with pytest.raises(SystemExit) as info:
        cli_entry()
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "error: catalog self-check failed: |C5?| = 5, expected 6\n")


def test_catalog_flags():
    assert not is_p_solvable(get_group("A5"), 2)
    assert is_solvable(get_group("SL(2,3)"))
    assert get_group("C1").order == 1


def test_unknown_group():
    with pytest.raises(UnknownGroup):
        entry("M11")


def test_coclass_enumeration():
    ctxs = coclass_contexts("C2xC2xC2")
    assert len(ctxs) == 8
    assert ctxs[0].label == "[0,0,0]"
    assert ctxs[0].coclass.is_trivial()
    labels = [c.label for c in ctxs]
    assert labels == sorted(labels)  # lexicographic
    # every group is solved in full: the Schur cover of A5 (order 120) has
    # the one coclass of its trivial multiplier, with its Coclass
    big = coclass_contexts("SL(2,5)")
    assert [c.label for c in big] == ["[]"] and big[0].coclass.is_trivial()
    a5 = coclass_contexts("A5")
    assert [c.label for c in a5] == ["[0]", "[1]"]


def test_h2_cap_is_no_option(monkeypatch, capsys):
    # no order bound on the multiplier: not as an option, not from the
    # environment and not in the configuration (test_source holds the
    # functions to no cap parameter)
    import dataclasses

    assert "h2_cap" not in {f.name for f in dataclasses.fields(RunConfig)}
    status, out, _ = _entry(monkeypatch, capsys, "--h2-cap", "120", "catalog")
    assert (status, out) == (2, "")
    monkeypatch.setenv("PROJREP_H2_CAP", "-1")
    status, out, err = _entry(monkeypatch, capsys, "multiplier", "A5")
    assert (status, err) == (0, "") and '"invariants": [2]' in out


def test_catalog_groups_stay_out_of_the_registry():
    from projrep import groups

    built = [get_group(e.name) for e in catalog() if e.order <= 60]
    for G in built:
        assert G.full_subgroup().as_group() is not G
    shared = {id(D) for D in groups._DERIVED.values()}
    assert not shared & {id(G) for G in built}


def test_warm_registry_changes_no_record():
    def records(groups):
        _, results = run(RunConfig(groups=groups, seed=11))
        return [json.dumps(r.to_dict(), sort_keys=True) for r in results
                if r.group == "SL(2,3)"]

    alone = records(["SL(2,3)"])
    assert alone
    assert records(["S4", "C2xA4", "SL(2,3)"]) == alone


def test_group_json_without_table():
    doc = {"name": "S3", "points": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    G = parse_group_json(doc)
    assert G.order == 6


def test_group_json_is_read_from_its_generators():
    # the generators are the one group format: a "cayley" key, which files
    # exported by earlier versions carry, is ignored
    doc = {"name": "S3", "points": 3, "generators": [[2, 1, 3], [2, 3, 1]],
           "cayley": [0] * 36}
    G = parse_group_json(doc)
    assert G.order == 6 and G.mul.tobytes() == get_group("S3").mul.tobytes()


def test_group_json_malformed():
    with pytest.raises(ParseError):
        parse_group_json({"name": "x", "points": 3})
    from projrep.errors import NotPermutation
    with pytest.raises(NotPermutation):
        parse_group_json({"name": "x", "points": 3,
                          "generators": [[1, 1, 2]]})


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(checks=["nope"]).validate()
    RunConfig().validate()


@pytest.mark.parametrize("bad", [{"checks": ["nope"]}, {"jobs": 0}])
def test_contexts_for_validates_its_config(bad):
    # a library caller's bad configuration is refused as run refuses it,
    # not answered with the trivial context alone
    with pytest.raises(ConfigError):
        contexts_for("S4", RunConfig(groups=["S4"], **bad))


def test_run_small_sweep(tmp_path):
    config = RunConfig(groups=["S3", "C6"], checks=["basic", "ito-michler"],
                       out=tmp_path / "r1", seed=7)
    status, results = run(config)
    assert status == 0
    assert all(r.verdict in ("pass", "inapplicable") for r in results)
    lines = (tmp_path / "r1" / "results.jsonl").read_text().splitlines()
    assert len(lines) == len(results)
    summary = (tmp_path / "r1" / "summary.csv").read_text()
    assert "S3,basic" in summary.replace('"', "")


def test_reports_carry_the_tolerance_table(tmp_path):
    # one entry per TOL_ constant, so no threshold goes unreported
    names = {n for n in vars(tolerances) if n.startswith("TOL_")}
    assert {"TOL_" + key.upper() for key in TOLERANCES} == names
    assert all(TOLERANCES[n[4:].lower()] == getattr(tolerances, n)
               for n in names)
    run(RunConfig(groups=["S3"], checks=["basic"], out=tmp_path))
    for line in (tmp_path / "results.jsonl").read_text().splitlines():
        assert json.loads(line)["tolerances"] == TOLERANCES
    report = degrees_report(coclass_contexts("D4")[1])
    assert report["tolerances"] == TOLERANCES


def test_run_reports_byte_identical(tmp_path):
    for sub in ("a", "b"):
        config = RunConfig(groups=["S4"], checks=["basic", "sylow-criterion"],
                           out=tmp_path / sub, seed=123)
        run(config)
    a = (tmp_path / "a" / "results.jsonl").read_bytes()
    b = (tmp_path / "b" / "results.jsonl").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "summary.csv").read_bytes() == \
        (tmp_path / "b" / "summary.csv").read_bytes()


def test_run_parallel_matches_serial(tmp_path):
    cfg1 = RunConfig(groups=["S4", "C6"], checks=["basic", "pi-theorem"],
                     out=tmp_path / "serial", seed=5, jobs=1)
    cfg2 = RunConfig(groups=["S4", "C6"], checks=["basic", "pi-theorem"],
                     out=tmp_path / "parallel", seed=5, jobs=4)
    run(cfg1)
    run(cfg2)
    assert (tmp_path / "serial" / "results.jsonl").read_bytes() == \
        (tmp_path / "parallel" / "results.jsonl").read_bytes()


def test_process_pool_matches_serial_on_three_groups(tmp_path):
    # each group's multiplier is solved inside a worker
    for jobs in (1, 2):
        run(RunConfig(groups=["S4", "SL(2,3)", "A5"], seed=5, jobs=jobs,
                      out=tmp_path / str(jobs)))
    for report in ("results.jsonl", "summary.csv"):
        assert (tmp_path / "1" / report).read_bytes() == \
            (tmp_path / "2" / report).read_bytes()
    records = (tmp_path / "1" / "results.jsonl").read_text().splitlines()
    assert {json.loads(line)["group"] for line in records} == \
        {"S4", "SL(2,3)", "A5"}


def _planted(monkeypatch, where):
    """Make one task (where="task") or one group's contexts (where="group")
    raise a ProjrepError, in this process and in forked workers."""
    from projrep.errors import NumericDegeneracy
    check = workbench.verify_normal_sylow_criterion
    contexts = workbench.group_contexts

    def sylow(ctx, p):
        if (ctx.group.name, ctx.label, p) == ("S4", "[1]", 3):
            raise NumericDegeneracy("planted")
        return check(ctx, p)

    def group(G):
        if G.name == "S3":
            raise NumericDegeneracy("planted")
        return contexts(G)

    if where == "task":
        monkeypatch.setattr(workbench, "verify_normal_sylow_criterion", sylow)
    else:
        monkeypatch.setattr(workbench, "group_contexts", group)


@pytest.mark.parametrize("where, key", [
    ("task", ("S4", "[1]", "normal_sylow_criterion", "p=3")),
    ("group", ("S3", "-", "contexts", "-")),
])
@pytest.mark.parametrize("wrapped", [False, True])
def test_an_error_is_one_record(tmp_path, monkeypatch, where, key, wrapped):
    # a ProjrepError ends one task, or one group's contexts, and gives one
    # error record in place of its results, named as the task's own results
    # are; every other record is as in a clean run, at one job and at two,
    # and the exit status is nonzero.  The same holds when _check_tasks is
    # wrapped, as a tracer wraps it, into one new callable per task
    if wrapped:
        tasks = workbench._check_tasks

        def wrapped_tasks(*args):
            for task in tasks(*args):
                yield functools.partial(lambda t: t(), task)
        monkeypatch.setattr(workbench, "_check_tasks", wrapped_tasks)

    def sweep(sub, jobs):
        config = RunConfig(groups=["S3", "S4", "C6"],
                           checks=["basic", "sylow-criterion"], seed=3,
                           jobs=jobs, out=tmp_path / sub)
        status, results = run(config)
        lines = (tmp_path / sub / "results.jsonl").read_text().splitlines()
        return status, [json.loads(line) for line in lines]

    status, clean = sweep("clean", 1)
    assert status == 0
    _planted(monkeypatch, where)
    lost = [r for r in clean if r["group"] == key[0] and (
        where == "group" or (r["coclass"], r["check"], r["param"])
        == key[1:])]
    assert lost
    for jobs in (1, 2):
        status, records = sweep(str(jobs), jobs)
        errors = [r for r in records if r["verdict"] == "error"]
        assert status == 1 and len(errors) == 1
        (err,) = errors
        assert (err["group"], err["coclass"], err["check"], err["param"]) \
            == key
        assert (err["witnesses"], err["reason"]) == (
            {"error": "NumericDegeneracy"}, "planted")
        assert [r for r in records if r is not err] == \
            [r for r in clean if r not in lost]
        summary = (tmp_path / str(jobs) / "summary.csv").read_text()
        assert summary.splitlines()[0] == \
            "group,check,pass,fail,inapplicable,error"
        rows = [line.split(",") for line in summary.splitlines()[1:]]
        erred = [(r[0], r[1]) for r in rows if r[-1] != "0"]
        assert erred == [(key[0], key[2])]
        assert sum(int(r[-1]) for r in rows) == 1


def test_a_traced_sweep_writes_the_untraced_reports(tmp_path):
    # the benchmark's tracer (perfbench/tracer.py) replaces _check_tasks
    # with one timing wrapper per task it yields; the sweep it runs must
    # write the reports an untraced run writes
    src = os.path.dirname(os.path.dirname(workbench.__file__))
    tracer = os.path.join(os.path.dirname(src), "perfbench", "tracer.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, tracer, str(tmp_path / "spans.jsonl"), "sweep",
         "--jobs", "1", "--seed", "0", "--out", str(tmp_path / "traced"),
         "S3", "C6"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    run(RunConfig(groups=["S3", "C6"], seed=0, out=tmp_path / "plain"))
    for report in ("results.jsonl", "summary.csv"):
        assert (tmp_path / "traced" / report).read_bytes() == \
            (tmp_path / "plain" / report).read_bytes()


def test_each_check_family_has_one_record_name():
    # summary.csv counts verdicts per (group, check name): a family whose
    # inapplicable records carry another name than its verdicts would be
    # listed twice
    names = {}
    for check in tolerances.CHECK_NAMES:
        _, results = run(RunConfig(groups=["A5", "S4"], checks=[check]))
        names[check] = {r.name for r in results}
    assert all(len(found) == 1 for found in names.values()), names


def test_cli_prints_errors_above_its_last_line(monkeypatch, capsys):
    _planted(monkeypatch, "task")
    status, out, err = _entry(monkeypatch, capsys, "verify", "S4",
                              "--check", "sylow-criterion")
    lines = out.splitlines()
    errors = [line for line in lines if line.startswith("ERROR")]
    assert (status, err) == (1, "")
    assert len(errors) == 1 and errors[0].split()[1:5] == [
        "normal_sylow_criterion", "S4", "c=[1]", "p=3"]
    assert errors[0].endswith("  NumericDegeneracy: planted")
    assert lines[-1] == "# pass=3 fail=0 inapplicable=0"


def test_unknown_group_raises_the_same_error_at_any_jobs():
    messages = []
    for jobs in (1, 2):
        with pytest.raises(UnknownGroup) as info:
            run(RunConfig(groups=["S3", "NoSuchGroup"], checks=["basic"],
                          jobs=jobs))
        assert type(info.value) is UnknownGroup
        messages.append(str(info.value))
    assert "NoSuchGroup" in messages[0]
    assert messages[0] == messages[1]


def test_worker_count_never_exceeds_jobs_groups_or_cpus(monkeypatch):
    # only the helper sees huge job counts; no process is started here
    cpus = len(os.sched_getaffinity(0))
    for jobs in (1, 2, 3, 10_000):
        for groups in (0, 1, 2, 5, 63):
            assert _worker_count(jobs, groups) == \
                max(1, min(jobs, groups, cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _worker_count(10_000, 63) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert _worker_count(10_000, 63) == 63
    assert _worker_count(3, 63) == 3
    monkeypatch.delattr(os, "fork")
    assert _worker_count(10_000, 63) == 1


def test_one_worker_starts_no_process(monkeypatch):
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    run(RunConfig(groups=["S3", "C6"], checks=["basic"], jobs=1))
    run(RunConfig(groups=["S3"], checks=["basic"], jobs=4))


def test_import_pins_openblas_to_one_thread_by_default():
    src = str(os.path.dirname(os.path.dirname(workbench.__file__)))
    probe = "import os, projrep; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for preset, expected in ((None, "1"), ("3", "3")):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        assert out.strip() == expected


def _loaded_after(tmp_path, modules, code, args=(), returncode=0):
    """The names in modules that a fresh interpreter running code holds in
    sys.modules when it exits with returncode, with this checkout's package
    on its path."""
    src = str(os.path.dirname(os.path.dirname(workbench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import atexit, json, sys; atexit.register(lambda: print("
             f"json.dumps([m for m in {list(modules)!r} if m in sys.modules]),"
             f" file=sys.stderr)); {code}")
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == returncode, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


def test_single_shots_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma (about 14 ms a process); the package sorts
    # and compares instead, so no single shot pays for it
    for command in (["multiplier", "S4"], ["verify", "S4"]):
        loaded = _loaded_after(tmp_path, ["numpy", "numpy.ma"],
                               "from projrep.cli import entry; entry()",
                               command)
        assert loaded == ["numpy"], command


def test_commands_that_compute_nothing_load_no_layer(tmp_path):
    # numpy and the compute layers are most of a cold start (0.26 s against
    # 0.11 s for `projrep catalog`); only commands that compute load them
    heavy = ["numpy"] + [f"projrep.{m}" for m in (
        "cohomology", "groups", "reps", "twisted", "verify", "workbench")]
    cli = "from projrep.cli import entry; entry()"
    for code, args in ((cli, ["catalog"]), (cli, ["--help"]),
                       (cli, ["verify", "--help"]), ("import projrep", [])):
        assert _loaded_after(tmp_path, heavy, code, args) == [], args
    # a command that computes loads the layers it runs, and no more: the
    # multiplier needs groups and cohomology, and no representation layer
    assert _loaded_after(tmp_path, heavy, cli, ["multiplier", "C2"]) == \
        ["numpy", "projrep.cohomology", "projrep.groups"]
    assert _loaded_after(tmp_path, heavy, cli, ["degrees", "C2"]) == heavy


def test_compute_processes_map_no_numpy_random_and_no_openssl(tmp_path):
    # seeded draws come from the standard library's random.Random, task
    # seeds from zlib.crc32 and basis hashes from the builtin SHA-256;
    # numpy.random (about 6 MB), hashlib's OpenSSL (about 3.7 MB) and click
    # (about 1 MB) feed no result, so no process maps them
    unused = ["numpy.random", "hashlib", "_hashlib", "click"]
    cli = "from projrep.cli import entry; entry()"
    sweep = ("from projrep.workbench import RunConfig, run; "
             "run(RunConfig(groups=['S4', 'C5xC5:C4'], jobs=1))")
    for code, args in ((cli, ["catalog"]), (cli, ["--help"]),
                       (cli, ["verify", "S4"]),
                       (cli, ["decompose", "S4", "--coclass", "1",
                              "--pi", "2"]),
                       (cli, ["multiplier", "S4"]),
                       (cli, ["degrees", "S4", "--coclass", "1"]),
                       (cli, ["regular-classes", "A5", "--coclass", "1"]),
                       (sweep, [])):
        assert _loaded_after(tmp_path, unused, code, args) == [], args


EXPORTS = {
    "cohomology": [
        "Coclass", "Cocycle", "SchurMultiplier", "cocycle_from_extension",
        "is_trivial_coclass", "pi_part", "restrict_coclass",
        "schur_multiplier", "trivial_cocycle"],
    "groups": [
        "ConjClass", "FiniteGroup", "NormalSeries", "PiSet", "Quotient",
        "Subgroup", "build_group", "centralizer", "conjugacy_classes",
        "hall_higman_check", "hall_subgroup", "is_p_solvable",
        "is_pi_separable", "is_solvable", "o_pi", "pi_series",
        "quotient_group", "sylow_subgroup"],
    "reps": [
        "CliffordExtension", "Constituent", "ProjRep", "character",
        "clifford_extend", "conjugate_rep", "decompose",
        "factor_over_extension", "induce_rep", "inertia_group",
        "intertwiner_space", "is_irreducible", "restrict_rep",
        "split_regular", "tensor_reps"],
    "twisted": [
        "RegularClassData", "TwistedAlgebra", "WedderburnData",
        "alpha_tilde", "c_regular_classes", "center_basis", "wedderburn"],
    "verify": [
        "CheckResult", "CoclassContext", "DecompositionCertificate",
        "decompose_along_series", "pi_decompose",
        "verify_a5_negative_control", "verify_basic",
        "verify_clifford_laws", "verify_ito_michler",
        "verify_normal_sylow_criterion", "verify_pi_theorem"],
}


def test_public_names_resolve_to_their_layer():
    assert projrep.__all__ == [n for names in EXPORTS.values() for n in names]
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"projrep.{layer}")
        namespace = {}
        exec(f"from projrep import {', '.join(names)}", namespace)
        for name in names:
            assert namespace[name] is getattr(module, name), name
    with pytest.raises(ImportError):
        exec("from projrep import no_such_name", {})


def _entry(monkeypatch, capsys, *argv):
    """Exit status, stdout and stderr of ``projrep argv`` run by entry()."""
    monkeypatch.setattr(sys, "argv", ["projrep", *argv])
    with pytest.raises(SystemExit) as done:
        projrep.cli.entry()
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


def test_cli_degrees(capsys):
    assert main(["degrees", "C2xC2", "--coclass", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degrees"] == [2]
    assert "cocycle_hash" in doc and "seed" in doc


def test_cli_multiplier(capsys):
    assert main(["multiplier", "C6"]) == 0
    assert json.loads(capsys.readouterr().out)["invariants"] == []
    main(["multiplier", "S4"])
    assert json.loads(capsys.readouterr().out)["invariants"] == [2]


def test_cli_regular_classes(capsys):
    assert main(["regular-classes", "C2xC2", "--coclass", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regular_count"] == 1


def test_cli_verify_pass(capsys):
    assert main(["verify", "S3", "--check", "basic"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_single_prime(capsys):
    assert main(["verify", "SL(2,3)", "--check", "ito-michler",
                 "--p", "3"]) == 0
    assert "pass=1" in capsys.readouterr().out.replace(" ", "")


def test_cli_decompose(capsys):
    assert main(["decompose", "S3", "--coclass", "0", "--pi", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["verdict"] == "pass" for c in doc["certificates"])


def test_cli_bad_coclass_index(monkeypatch, capsys):
    status, out, err = _entry(monkeypatch, capsys,
                              "degrees", "C6", "--coclass", "5")
    assert status == 2
    assert out == ""
    assert err == "error: C6 has 1 coclasses; index 5 is out of range\n"


def test_cli_group_file(tmp_path, capsys):
    doc = {"name": "S3", "points": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    assert main(["degrees", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["degrees"] == [1, 1, 2]


def test_cli_env_override(monkeypatch, capsys):
    # entry() reads the global options' defaults from PROJREP_<OPTION>
    label = contexts_for("S3", RunConfig(groups=["S3"]))[0].label
    monkeypatch.setenv("PROJREP_SEED", "99")
    status, out, _ = _entry(monkeypatch, capsys, "degrees", "S3")
    assert status == 0
    assert json.loads(out)["seed"] == _task_seed(99, "S3", label) != \
        _task_seed(0, "S3", label)
    monkeypatch.setenv("PROJREP_SEED", "x")
    status, out, err = _entry(monkeypatch, capsys, "catalog")
    assert status == 2 and out == ""
    assert "argument --seed: invalid int value: 'x'" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "S4", "--p", "4"], "argument --p: invalid prime value: '4'"),
    (["verify", "S4", "--p", "0"], "argument --p: invalid prime value: '0'"),
    (["verify", "S4", "--p", "two"],
     "argument --p: invalid prime value: 'two'"),
    (["verify", "S4", "--pi", "2,9"],
     "argument --pi: invalid primes value: '2,9'"),
    (["verify", "S4", "--pi", ""], "argument --pi: invalid primes value: ''"),
    (["decompose", "S4", "--coclass", "1", "--pi", "4"],
     "argument --pi: invalid primes value: '4'"),
    (["decompose", "S4", "--coclass", "1", "--pi", "0"],
     "argument --pi: invalid primes value: '0'"),
    (["decompose", "S4", "--coclass", "1", "--pi", "2,"],
     "argument --pi: invalid primes value: '2,'"),
])
def test_cli_primes_are_checked_while_parsing(monkeypatch, capsys, argv,
                                              message):
    # the checks and the pi-split take these as primes (4 would be checked
    # as one, 0 divides by zero), so the parser refuses them
    status, out, err = _entry(monkeypatch, capsys, *argv)
    assert status == 2 and out == ""
    assert err.splitlines()[-1].endswith(message)


def test_cli_bad_primes_load_no_layer(tmp_path):
    # a bad prime is a usage error before any layer, numpy included, loads
    heavy = ["numpy"] + [f"projrep.{m}" for m in (
        "cohomology", "groups", "reps", "twisted", "verify", "workbench")]
    cli = "from projrep.cli import entry; entry()"
    for args in (["verify", "S4", "--p", "4"],
                 ["decompose", "S4", "--coclass", "1", "--pi", "4"]):
        assert _loaded_after(tmp_path, heavy, cli, args,
                             returncode=2) == [], args


JOBS_0 = "argument --jobs: invalid positive value: '0'"


@pytest.mark.parametrize("argv, env, message", [
    (["--jobs", "0", "catalog"], {}, JOBS_0),
    (["--jobs", "0", "regular-classes", "S4"], {}, JOBS_0),
    (["--jobs", "0", "decompose", "S4", "--pi", "2"], {}, JOBS_0),
    (["--jobs", "0", "multiplier", "S4"], {}, JOBS_0),
    (["--jobs", "0", "verify", "S4"], {}, JOBS_0),
    (["degrees", "S4"], {"PROJREP_JOBS": "-1"},
     "argument --jobs: invalid positive value: '-1'"),
    (["multiplier", "S4"], {"PROJREP_JOBS": "-1"},
     "argument --jobs: invalid positive value: '-1'"),
    (["--jobs", "0", "degrees", "C2"], {},
     "argument --jobs: invalid positive value: '0'"),
    (["--jobs", "-3", "verify", "C2"], {},
     "argument --jobs: invalid positive value: '-3'"),
    (["decompose", "C2", "--pi", "2"], {"PROJREP_JOBS": "0"},
     "argument --jobs: invalid positive value: '0'"),
])
def test_cli_nonpositive_caps_and_jobs_are_usage_errors(monkeypatch, capsys,
                                                         argv, env, message):
    # RunConfig.validate refuses a job count below 1, but only for verify
    # and after numpy loads; the parser refuses it for every command, from
    # the flag or the environment
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    status, out, err = _entry(monkeypatch, capsys, *argv)
    assert status == 2 and out == ""
    assert err.splitlines()[-1].endswith(message)


def test_cli_nonpositive_values_load_no_layer(tmp_path, monkeypatch):
    heavy = ["numpy"] + [f"projrep.{m}" for m in (
        "cohomology", "groups", "reps", "twisted", "verify", "workbench")]
    cli = "from projrep.cli import entry; entry()"
    for args in (["--jobs", "0", "multiplier", "S4"],
                 ["--jobs", "0", "degrees", "C2"]):
        assert _loaded_after(tmp_path, heavy, cli, args,
                             returncode=2) == [], args
    monkeypatch.setenv("PROJREP_JOBS", "-1")
    assert _loaded_after(tmp_path, heavy, cli, ["decompose", "S4", "--pi", "2"],
                         returncode=2) == []


@pytest.mark.parametrize("argv", [["--order-cap", "10", "catalog"],
                                  ["--order-cap", "10", "verify", "S4"]])
def test_cli_has_no_order_cap_option(monkeypatch, capsys, argv):
    # the order cap is the constant groups.ORDER_CAP, not an option
    status, out, _ = _entry(monkeypatch, capsys, *argv)
    assert status == 2 and out == ""


def test_cli_group_file_past_the_order_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"name": "S6", "points": 6, "generators": [
        [2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]}))
    status, out, err = _entry(monkeypatch, capsys, "degrees", str(path))
    assert (status, out) == (2, "")
    assert err == "error: closure of 'S6' exceeds cap 200\n"


def test_cli_multiplier_above_the_default_cap(monkeypatch, capsys):
    # the Schur cover of A5 (order 120, past the H^2 cap of 60 there once
    # was) has a trivial multiplier, read with no option
    status, out, err = _entry(monkeypatch, capsys, "multiplier", "SL(2,5)")
    assert (status, err) == (0, "")
    assert '"invariants": []' in out
