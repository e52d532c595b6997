import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from couplex import cli
from couplex.cli import main
from couplex.config import parse_param_value
from couplex.exact import ExtinctionReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_requires_subcommand_or_config(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "subcommand or --config" in err


def test_zoo_lists_models(capsys):
    code, out, _ = run(capsys, "zoo")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert any(line.startswith("traffic2(") for line in lines)


def test_zoo_refuses_output_options(tmp_path, capsys):
    target = tmp_path / "models.json"
    code, out, err = run(capsys, "zoo", "--output", str(target), "--format", "json")
    assert code == 2 and out == ""
    assert err == (
        "couplex: [output.path] path is read only by runs that write a report, not zoo\n"
        "couplex: [output.format] format is read only by runs that write a report, not zoo\n"
    )
    assert not target.exists()
    path = tmp_path / "run.ini"
    path.write_text("[run]\ncommand = zoo\n\n[output]\nformat = json\n", encoding="utf-8")
    code, out, err = run(capsys, "--config", str(path))
    assert code == 2 and out == ""
    assert err == "couplex: [output.format] format is read only by runs that write a report, not zoo\n"


def test_check_monotone_exit_codes(capsys):
    code, out, _ = run(capsys, "check-monotone", "traffic2", "alpha=0.3", "beta=0.7")
    assert code == 0
    assert "monotone" in out and "not monotone" not in out

    code, out, _ = run(capsys, "check-monotone", "gg_symmetrized", "1", "0", "1", "0")
    assert code == 1
    assert "not monotone" in out
    assert "condition fails" in out


_CONSTANT_TABLE = "table=" + "\n".join("1 %s 1" % format(k, "03b") for k in range(8))

#: the ``--strict`` line of every monotone MONOTONE_ZOO spec, and of float
#: specs whose least-slack rows tie between int and float slacks
PINNED_STRICTNESS = [
    (("sep",), "strict (6 binding instances, min slack 1)"),
    (("sep", "p=1:1/2,-1:1/2"), "strict (50 binding instances, min slack 1/2)"),
    (("two_step",), "not strict (72 binding instances, min slack 0)"),
    (("two_star_step",), "not strict (72 binding instances, min slack 0)"),
    (("traffic2", "1/2", "1/2"), "strict (90 binding instances, min slack 1/2)"),
    (("traffic2", "7/10", "1/5"), "strict (90 binding instances, min slack 1/5)"),
    (("gg_symmetrized", "2", "1", "1", "2"), "not strict (450 binding instances, min slack 0)"),
    (("gg_symmetrized", "3/2", "3/4", "1", "5/4"), "strict (450 binding instances, min slack 1/4)"),
    (("speed_change_decreasing", "2"), "strict (90 binding instances, min slack 3)"),
    (("speed_change_increasing",), "not strict (50 binding instances, min slack 0)"),
    (("custom_table", "offsets=1,", "dep_radius=0", _CONSTANT_TABLE), "strict (6 binding instances, min slack 1)"),
    (("gg_symmetrized", "2.0", "1", "1", "2"), "not strict (450 binding instances, min slack 0)"),
    (("traffic2", "1.0", "0.0"), "not strict (72 binding instances, min slack 0.0)"),
    (("traffic2", "0.7", "0.2"), "strict (90 binding instances, min slack 0.2)"),
]


@pytest.mark.parametrize("argv, line", PINNED_STRICTNESS, ids=[" ".join(argv[:3]) for argv, _ in PINNED_STRICTNESS])
def test_check_monotone_strict_output_is_pinned(capsys, argv, line):
    code, out, err = run(capsys, "check-monotone", "--strict", *argv)
    assert code == 0 and err == ""
    verdict, strictness = out.splitlines()
    assert verdict.endswith(": monotone")
    assert strictness == "strictness: " + line


def test_positional_and_keyword_params_mix(capsys):
    code, out, _ = run(capsys, "check-monotone", "traffic2", "1/2", "beta=1/2")
    assert code == 0
    assert "alpha=1/2" in out and "beta=1/2" in out


def test_unknown_model_is_usage_error(capsys):
    code, _, err = run(capsys, "check-monotone", "nosuch")
    assert code == 2
    assert "unknown model" in err


def test_too_many_positional_params(capsys):
    code, _, err = run(capsys, "check-monotone", "sep", "1", "2")
    assert code == 2
    assert "positional" in err


def test_coupling_table_csv(capsys):
    code, out, _ = run(
        capsys,
        "coupling-table",
        "sep",
        "--first",
        "1010",
        "--second",
        "1100",
        "--kind",
        "attractive",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "entry,x1,y1,x2,y2,rate"
    # join(1010, 1100) = 1110; its only active jump, 2 -> 3, is not one the
    # second copy can make, so each copy moves alone on its own active jumps
    assert lines[1:] == ["first,0,1,,,1", "first,2,3,,,1", "second,1,2,,,1"]


def test_coupling_table_requires_pair(capsys):
    code, _, err = run(capsys, "coupling-table", "sep", "--first", "1010")
    assert code == 2
    assert "second configuration" in err


def test_exact_stationary(capsys):
    code, out, _ = run(capsys, "exact", "sep", "--task", "stationary", "--size", "4", "--count", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sector,component,state,weight"
    assert len(lines) == 7  # six states in the sector
    assert all(line.startswith("2,0,") for line in lines[1:])


def test_exact_stationary_picks_the_sector_of_a_density(capsys):
    code, out, err = run(capsys, "exact", "sep", "--task", "stationary", "--size", "5", "--density", "0.6")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 11 and all(line.startswith("3,0,") for line in lines[1:])
    assert run(capsys, "exact", "sep", "--task", "stationary", "--size", "5", "--count", "3") == (0, out, "")


def test_simulate_exits_1_when_the_pathwise_check_fails(capsys):
    # traffic2(0, 2) is not monotone: the increasing coupling breaks the
    # order of this ordered start
    code, out, err = run(
        capsys, "simulate", "traffic2", "0", "2", "--first", "1100100000000000",
        "--second", "1110101000000000", "--kind", "increasing", "--t-end", "50",
    )
    assert (code, out) == (1, "")
    assert err == "couplex: pathwise check failed: order broken at event 156\n"


def test_exact_stationary_names_each_reducible_sector(capsys):
    code, out, err = run(
        capsys, "exact", "gg_symmetrized", "1", "0", "1", "0", "--task", "stationary", "--size", "6"
    )
    assert code == 0
    # the components of a sector follow the order of their least states
    assert out == (
        "sector,component,state,weight\n"
        "0,0,000000,1.0\n"
        "1,0,100000,1.0\n"
        "1,1,010000,1.0\n"
        "1,2,001000,1.0\n"
        "1,3,000100,1.0\n"
        "1,4,000010,1.0\n"
        "1,5,000001,1.0\n"
        "2,0,101000,1.0\n"
        "2,1,100100,1.0\n"
        "2,2,100010,1.0\n"
        "2,3,010100,1.0\n"
        "2,4,010010,1.0\n"
        "2,5,010001,1.0\n"
        "2,6,001010,1.0\n"
        "2,7,001001,1.0\n"
        "2,8,000101,1.0\n"
        "3,0,101010,1.0\n"
        "3,1,010101,1.0\n"
        "4,0,111010,0.1111111111111111\n"
        "4,0,110110,0.1111111111111111\n"
        "4,0,110101,0.1111111111111111\n"
        "4,0,101110,0.1111111111111111\n"
        "4,0,101101,0.1111111111111111\n"
        "4,0,101011,0.1111111111111111\n"
        "4,0,011101,0.1111111111111111\n"
        "4,0,011011,0.1111111111111111\n"
        "4,0,010111,0.1111111111111111\n"
        "5,0,111110,0.16666666666666669\n"
        "5,0,111101,0.16666666666666669\n"
        "5,0,111011,0.16666666666666669\n"
        "5,0,110111,0.16666666666666669\n"
        "5,0,101111,0.16666666666666669\n"
        "5,0,011111,0.16666666666666669\n"
        "6,0,111111,1.0\n"
    )
    assert err.splitlines() == [
        "couplex: sector %d: chain is reducible: %d closed classes; returning one "
        "stationary distribution per class" % pair
        for pair in ((1, 6), (2, 9), (3, 2))
    ]


def test_exact_audit_exit_codes(capsys):
    code, out, err = run(capsys, "exact", "sep", "--task", "audit-order", "--size", "5")
    assert code == 0
    assert "0 violating transitions" in err

    code, out, err = run(
        capsys, "exact", "traffic2", "0", "2", "--task", "audit-order", "--size", "5"
    )
    assert code == 1
    assert "90 violating transitions" in err
    assert out.splitlines()[0] == "first,second,move,first_jump,second_jump,rate"


def test_exact_extinction_json(capsys):
    code, out, _ = run(
        capsys, "exact", "traffic2", "1/2", "1/2", "--task", "extinction", "--size", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["min_probability"] == 1.0
    assert payload["pairs_checked"] == 570


def test_exact_extinction_of_pairs_that_never_become_comparable(capsys):
    # jumps of 2 keep each particle on its parity class: some unordered
    # pairs never reach a comparable pair, which is probability 0, not an error
    code, out, err = run(capsys, "exact", "sep", "2:1", "--task", "extinction", "--size", "6")
    assert code == 1, err
    payload = json.loads(out)
    assert payload["min_probability"] == 0
    assert payload["worst_pair"] == ["000001", "000010"]


def test_exact_extinction_of_blocked_specs(capsys):
    # a hop that the skipped site opens or shuts gets a number, not a refusal
    code, out, err = run(capsys, "exact", "two_step", "--task", "extinction", "--size", "6")
    assert code == 0, err
    assert json.loads(out)["min_probability"] == 1.0
    # where the strict coupling cannot serve a pair, its error names the pair
    code, out, err = run(capsys, "exact", "traffic2", "0", "2", "--task", "extinction", "--size", "6")
    assert code == 2 and out == ""
    assert "in the pair 000001 / 000010" in err


def test_exact_extinction_csv_names_the_worst_pair(tmp_path, capsys, monkeypatch):
    target = tmp_path / "extinction.csv"
    code, out, err = run(
        capsys, "exact", "sep", "2:1", "--task", "extinction", "--size", "6",
        "--output", str(target), "--format", "csv",
    )
    assert code == 1 and out == "", err
    assert target.read_text(encoding="utf-8") == (
        "min_probability,pairs_checked,first,second\n0.0,2702,000001,000010\n"
    )
    code, out, err = run(
        capsys, "exact", "traffic2", "1/2", "1/2", "--task", "extinction", "--size", "5",
        "--output", str(target), "--format", "csv",
    )
    assert code == 0 and out == "", err
    assert target.read_text(encoding="utf-8") == (
        "min_probability,pairs_checked,first,second\n1.0,570,00001,00010\n"
    )
    # no unordered pair, no witness: the columns stay, empty
    monkeypatch.setattr(cli, "discrepancy_extinction", lambda *args: ExtinctionReport(1.0, None, 0))
    code, out, err = run(
        capsys, "exact", "sep", "--task", "extinction", "--size", "3",
        "--output", str(target), "--format", "csv",
    )
    assert code == 0 and out == "", err
    assert target.read_text(encoding="utf-8") == "min_probability,pairs_checked,first,second\n1.0,0,,\n"


def test_exact_refuses_a_ring_too_small_for_the_spec(capsys):
    # a 1-site ring holds only ordered pairs: a plausible probability 1 once
    code, out, err = run(capsys, "exact", "sep", "--task", "extinction", "--size", "1")
    assert code == 2 and out == ""
    assert err == "couplex: ring of 1 sites is too small for sep (needs >= 3)\n"


def test_exact_refuses_a_ring_above_the_coupled_cap(capsys):
    code, out, err = run(capsys, "exact", "sep", "--task", "audit-order", "--size", "9")
    assert code == 2 and out == ""
    assert err == (
        "couplex: exact coupled enumeration of 262144 pairs (L=9) exceeds the cap of "
        "65536 pairs (L=8)\n"
    )


def test_exact_refuses_options_its_task_does_not_read(tmp_path, capsys):
    code, out, err = run(capsys, "exact", "sep", "--task", "extinction", "--size", "5", "--count", "2")
    assert code == 2 and out == ""
    assert err == "couplex: [lattice.count] count is read only by task stationary, not extinction\n"
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = exact\n\n[model]\nid = sep\n\n"
        "[lattice]\nsize = 5\ndensity = 0.4\n\n[execution]\ntask = audit-order\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "--config", str(path))
    assert code == 2 and out == ""
    assert "[lattice.density] density is read only by task stationary, not audit-order" in err
    # the coupling kind: by flag or from the file, the stationary task reads none
    code, out, err = run(
        capsys, "exact", "sep", "--task", "stationary", "--size", "4", "--count", "2", "--kind", "strict"
    )
    assert code == 2 and out == ""
    assert err == (
        "couplex: [execution.kind] kind is read only by tasks audit-order, audit-discrepancy, "
        "extinction, not stationary\n"
    )
    path.write_text(
        "[run]\ncommand = exact\n\n[model]\nid = sep\n\n"
        "[lattice]\nsize = 4\n\n[execution]\ntask = stationary\nkind = attractive\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "--config", str(path))
    assert code == 2 and out == ""
    assert "[execution.kind] kind is read only by tasks" in err


def test_exact_extinction_has_no_tolerance(capsys):
    # the verdict is exact, so there is no tolerance to set
    with pytest.raises(SystemExit) as exit_:
        main(["exact", "sep", "--task", "extinction", "--size", "4", "--tol", "0.5"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert "unrecognized arguments: --tol 0.5" in err


def test_exact_requires_task(capsys):
    code, _, err = run(capsys, "exact", "sep", "--size", "5")
    assert code == 2
    assert "task" in err


def test_simulate_single_csv_deterministic(capsys):
    argv = ["simulate", "sep", "--first", "101000", "--t-end", "5", "--sample-dt", "1", "--seed", "5"]
    code, first_out, _ = run(capsys, *argv)
    assert code == 0
    code, second_out, _ = run(capsys, *argv)
    assert first_out == second_out
    lines = first_out.strip().splitlines()
    assert lines[0] == "time,site_0,site_1,site_2,site_3,site_4,site_5"
    assert len(lines) == 6
    for line in lines[1:]:
        bits = [int(b) for b in line.split(",")[1:]]
        assert sum(bits) == 2


def test_simulate_coupled_columns(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "traffic2",
        "0.7",
        "0.2",
        "--first",
        "10100000",
        "--second",
        "01100000",
        "--kind",
        "attractive",
        "--t-end",
        "20",
        "--sample-dt",
        "5",
        "--seed",
        "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,discrepancies,ordered"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_simulate_replicas_column(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "sep",
        "--size",
        "6",
        "--count",
        "3",
        "--replicas",
        "2",
        "--t-end",
        "2",
        "--seed",
        "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("replica,time,")
    replicas = {line.split(",")[0] for line in lines[1:]}
    assert replicas == {"0", "1"}


def test_simulate_observable(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "sep",
        "--size",
        "6",
        "--count",
        "2",
        "--t-end",
        "4",
        "--sample-dt",
        "1",
        "--seed",
        "2",
        "--observable",
        "density_profile",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "site,density"
    assert len(lines) == 7


def test_simulate_refuses_options_its_run_does_not_read(tmp_path, capsys):
    # a single chain reads no coupling kind, by flag or from the file
    start = ("simulate", "traffic2", "0.7", "0.2", "--size", "10", "--count", "5", "--t-end", "1")
    code, out, err = run(capsys, *start, "--kind", "strict")
    assert code == 2 and out == ""
    assert err == "couplex: [execution.kind] kind is read only by coupled runs, not a single chain\n"
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = simulate\n\n[model]\nid = sep\n\n"
        "[lattice]\nsize = 6\ndensity = 0.5\n\n[execution]\nkind = attractive\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "--config", str(path))
    assert code == 2 and out == ""
    assert "[execution.kind] kind is read only by coupled runs, not a single chain" in err
    # the per-site columns belong to the sample table of a coupled run
    code, out, err = run(capsys, *start, "--sites")
    assert code == 2 and out == ""
    assert err == (
        "couplex: [output.sites] sites is read only by the sample tables of coupled runs, "
        "not a single chain\n"
    )
    for observable in ("order_time", "discrepancy_curve", "density_profile"):
        code, out, err = run(capsys, *start, "--coupled", "--sites", "--observable", observable)
        assert code == 2 and out == ""
        assert err == (
            "couplex: [output.sites] sites is read only by the sample tables of coupled runs, "
            "not observable %s\n" % observable
        )
    # both at once: one diagnostic each
    code, out, err = run(capsys, *start, "--kind", "strict", "--sites")
    assert code == 2 and out == ""
    assert err.count("is read only by") == 2
    # a coupled run reads both
    code, out, _ = run(capsys, *start, "--coupled", "--kind", "strict", "--sites")
    assert code == 0
    assert out.splitlines()[0].startswith("time,discrepancies,ordered,first_0,")


SEP = "[model]\nid = sep\n\n"
NO_PATH = "format is read only by runs with path, not %s without path"

#: runs given settings they do not read, by flag or by file key: the
#: arguments ("{ini}" stands for the file), the file, whether the run reads
#: --output (the test then gives it), and the refusals, one per setting
UNREAD = {
    "check-monotone format flag": (
        ["check-monotone", "sep", "--format", "json"],
        None,
        False,
        ["[output.format] " + NO_PATH % "check-monotone"],
    ),
    "check-monotone format file": (
        ["--config", "{ini}"],
        "[run]\ncommand = check-monotone\n\n" + SEP + "[output]\nformat = csv\n",
        False,
        ["[output.format] " + NO_PATH % "check-monotone"],
    ),
    "exact extinction format flag": (
        ["exact", "sep", "--size", "5", "--task", "extinction", "--format", "csv"],
        None,
        False,
        ["[output.format] " + NO_PATH % "extinction"],
    ),
    "golden-suite format flag": (
        ["golden-suite", "--format", "json"],
        None,
        False,
        ["[output.format] " + NO_PATH % "golden-suite"],
    ),
    "simulate count and density under first flag": (
        ["simulate", "sep", "--first", "110000", "--density", "0.9", "--count", "1"],
        None,
        True,
        [
            "[lattice.density] density is read only by runs without first or count, "
            "not a single chain with first",
            "[lattice.count] count is read only by runs without first, not a single chain with first",
        ],
    ),
    "simulate density under count flag": (
        ["simulate", "--size", "6", "--count", "2", "--density", "0.9", "sep"],
        None,
        True,
        [
            "[lattice.density] density is read only by runs without first or count, "
            "not a single chain with count",
        ],
    ),
    "simulate count under first file": (
        ["simulate", "--config", "{ini}", "--count", "1", "--coupled"],
        "[run]\ncommand = simulate\n\n" + SEP + "[lattice]\nfirst = 110000\n",
        True,
        ["[lattice.count] count is read only by runs without first, not a coupled run with first"],
    ),
    "exact stationary density under count flag": (
        ["exact", "sep", "--task", "stationary", "--size", "4", "--count", "2", "--density", "0.5"],
        None,
        True,
        ["[lattice.density] density is read only by runs without count, not stationary with count"],
    ),
    "check-monotone lattice and execution file": (
        ["check-monotone", "--config", "{ini}"],
        "[run]\ncommand = check-monotone\n\n" + SEP + "[lattice]\nsize = 5\n\n"
        "[execution]\nseed = 0\nkind = strict\nreplicas = 1\n",
        True,
        [
            "[lattice.size] size is read only by exact, simulate, not check-monotone",
            "[execution.seed] seed is read only by simulate, not check-monotone",
            "[execution.replicas] replicas is read only by simulate, not check-monotone",
            "[execution.kind] kind is read only by coupling-table, exact, simulate, not check-monotone",
        ],
    ),
    "coupling-table lattice and execution file": (
        ["coupling-table", "--config", "{ini}"],
        "[run]\ncommand = coupling-table\n\n" + SEP + "[lattice]\nfirst = 1010\nsecond = 1100\n"
        "density = 0.5\n\n[execution]\nseed = 1\ntask = stationary\nt_end = 3\n",
        True,
        [
            "[lattice.density] density is read only by exact, simulate, not coupling-table",
            "[execution.seed] seed is read only by simulate, not coupling-table",
            "[execution.t_end] t_end is read only by simulate, not coupling-table",
            "[execution.task] task is read only by exact, not coupling-table",
        ],
    ),
    "golden-suite model, lattice and execution file": (
        ["golden-suite", "--config", "{ini}", "--criteria", "speed-models"],
        "[run]\ncommand = golden-suite\n\n" + SEP + "[lattice]\nsize = 5\n\n[execution]\ncoupled = false\n",
        True,
        [
            "[model.id] id is read only by check-monotone, coupling-table, exact, simulate, not golden-suite",
            "[lattice.size] size is read only by exact, simulate, not golden-suite",
            "[execution.coupled] coupled is read only by simulate, not golden-suite",
        ],
    ),
    "zoo model, lattice and execution file": (
        ["--config", "{ini}"],
        "[run]\ncommand = zoo\n\n" + SEP + "[lattice]\nsize = 5\n\n[execution]\nseed = 3\n",
        False,
        [
            "[model.id] id is read only by check-monotone, coupling-table, exact, simulate, not zoo",
            "[lattice.size] size is read only by exact, simulate, not zoo",
            "[execution.seed] seed is read only by simulate, not zoo",
        ],
    ),
    "simulate order_time single flag": (
        ["simulate", "sep", "--size", "64", "--density", "0.5", "--seed", "1", "--t-end", "3000",
         "--observable", "order_time"],
        None,
        True,
        ["[output.observable] order_time is read only by coupled runs, not a single chain"],
    ),
    "simulate discrepancy_curve single file": (
        ["simulate", "--config", "{ini}", "--observable", "discrepancy_curve"],
        "[run]\ncommand = simulate\n\n" + SEP + "[lattice]\nsize = 6\ndensity = 0.5\n",
        True,
        ["[output.observable] discrepancy_curve is read only by coupled runs, not a single chain"],
    ),
    "simulate discrepancy_curve sample_dt flag": (
        ["simulate", "traffic2", "0.7", "0.2", "--size", "10", "--count", "5", "--t-end", "3", "--coupled",
         "--seed", "4", "--observable", "discrepancy_curve", "--sample-dt", "0.5"],
        None,
        True,
        ["[execution.sample_dt] sample_dt is read only by runs that keep samples, "
         "not observable discrepancy_curve"],
    ),
    "simulate discrepancy_curve sample_dt file": (
        ["simulate", "--config", "{ini}", "--observable", "discrepancy_curve"],
        "[run]\ncommand = simulate\n\n[model]\nid = traffic2\nalpha = 0.7\nbeta = 0.2\n\n"
        "[lattice]\nsize = 10\ndensity = 0.5\n\n[execution]\nt_end = 3\nsample_dt = 5\ncoupled = true\n",
        True,
        ["[execution.sample_dt] sample_dt is read only by runs that keep samples, "
         "not observable discrepancy_curve"],
    ),
    "simulate task file": (
        ["simulate", "--config", "{ini}"],
        "[run]\ncommand = simulate\n\n" + SEP + "[lattice]\nsize = 6\ndensity = 0.5\n\n"
        "[execution]\ntask = extinction\n",
        True,
        ["[execution.task] task is read only by exact, not simulate"],
    ),
}


@pytest.mark.parametrize("argv, ini, writes, diagnostics", UNREAD.values(), ids=UNREAD.keys())
def test_runs_refuse_settings_they_do_not_read(tmp_path, capsys, argv, ini, writes, diagnostics):
    # refused before any work, whether the setting came from a flag or a file
    path = tmp_path / "run.ini"
    if ini is not None:
        path.write_text(ini, encoding="utf-8")
    target = tmp_path / "report"
    argv = [str(path) if a == "{ini}" else a for a in argv] + (["--output", str(target)] if writes else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert not target.exists()
    assert err.splitlines() == ["couplex: " + d for d in diagnostics]


def test_observables_of_coupled_runs_are_refused_before_simulating(monkeypatch, capsys):
    # a single chain cannot serve order_time or discrepancy_curve: the run
    # stops before it simulates, and the observables it serves still run
    def fail(*args, **kwargs):
        raise AssertionError("simulated")

    start = ("simulate", "sep", "--size", "8", "--count", "4", "--t-end", "2", "--sample-dt", "1")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "simulate_single", fail)
        for observable in ("order_time", "discrepancy_curve"):
            code, out, err = run(capsys, *start, "--observable", observable)
            assert code == 2 and out == ""
            assert err == (
                "couplex: [output.observable] %s is read only by coupled runs, not a single chain\n"
                % observable
            )
    code, out, _ = run(capsys, *start, "--observable", "density_profile")
    assert code == 0 and out.startswith("site,density\n")
    for observable, head in (("order_time", "order_time\n"), ("discrepancy_curve", "event,discrepancies\n")):
        code, out, _ = run(capsys, *start[:-2], "--coupled", "--observable", observable)
        assert code == 0 and out.startswith(head)


def test_check_monotone_refuses_a_negative_witness_count(capsys):
    code, out, err = run(capsys, "check-monotone", "gg_symmetrized", "1", "0", "1", "0", "--witnesses", "-1")
    assert code == 2 and out == ""
    assert err == "couplex: [output.witnesses] witnesses must be at least 0, got -1\n"
    code, out, _ = run(capsys, "check-monotone", "gg_symmetrized", "1", "0", "1", "0", "--witnesses", "0")
    assert code == 1 and out.splitlines() == ["gg_symmetrized(alpha=1, beta=0, gamma=1, delta=0): not monotone"]


def test_exact_refuses_a_sector_the_ring_cannot_hold(capsys):
    for count in ("7", "-1"):
        code, out, err = run(capsys, "exact", "sep", "--task", "stationary", "--size", "5", "--count", count)
        assert code == 2 and out == ""
        assert err == "couplex: count must lie in [0, 5]\n"


def test_simulate_needs_a_start(capsys):
    code, _, err = run(capsys, "simulate", "sep", "--size", "6", "--t-end", "1")
    assert code == 2
    assert "needs a start" in err


def test_output_file_is_written_atomically(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "coupling-table",
        "sep",
        "--first",
        "1010",
        "--second",
        "1100",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("entry,x1,y1,x2,y2,rate\n")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".couplex-")]
    assert leftovers == []


def test_json_format(capsys):
    code, out, _ = run(
        capsys,
        "coupling-table",
        "sep",
        "--first",
        "1010",
        "--second",
        "1000",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    # 0 -> 1 is a move of both copies, 2 -> 3 of the first alone
    assert [(r["entry"], r["x1"], r["y1"]) for r in rows] == [("coupled", 0, 1), ("first", 2, 3)]


def test_config_file_dispatch(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = check-monotone\n\n[model]\nid = traffic2\nalpha = 3/10\nbeta = 7/10\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "--config", str(path))
    assert code == 0
    assert "traffic2(alpha=3/10, beta=7/10): monotone" in out

    code, out, _ = run(capsys, "check-monotone", "--config", str(path), "beta=2")
    assert code == 1
    assert "beta=2" in out

    code, _, err = run(capsys, "zoo", "--config", str(path))
    assert code == 2
    assert "config file drives" in err


def test_broken_config_is_diagnosed(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text("[run]\ncommand = warp\n", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(path))
    assert code == 2
    assert "[run.command]" in err


INVALID_FLAGS = [
    (("--t-end", "-5"), "t_end = -5", "[execution.t_end] t_end must be positive"),
    (("--sample-dt", "-1"), "sample_dt = -1", "[execution.sample_dt] sample_dt must be positive"),
    (("--replicas", "0"), "replicas = 0", "[execution.replicas] replicas must be at least 1"),
    (("--t-end", "inf"), "t_end = inf", "[execution.t_end] t_end must be positive and finite"),
    (
        ("--t-end", "5", "--sample-dt", "inf"),
        "t_end = 5\nsample_dt = inf",
        "[execution.sample_dt] sample_dt must be positive and finite",
    ),
    (
        ("--t-end", "1", "--sample-dt", "5"),
        "t_end = 1\nsample_dt = 5",
        "couplex: sample_dt 5.0 leaves no sample time up to t_end 1.0",
    ),
]


@pytest.mark.parametrize("flags,line,diagnostic", INVALID_FLAGS)
def test_invalid_flags_are_diagnosed_like_config_keys(tmp_path, capsys, flags, line, diagnostic):
    base = ("simulate", "sep", "--size", "8", "--density", "0.5")
    code, out, err = run(capsys, *base, *flags)
    assert code == 2
    assert out == ""
    assert diagnostic in err
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = simulate\n\n[model]\nid = sep\n\n"
        "[lattice]\nsize = 8\ndensity = 0.5\n\n[execution]\n%s\n" % line,
        encoding="utf-8",
    )
    code, _, from_file = run(capsys, "--config", str(path))
    assert code == 2
    assert from_file == err


def test_invalid_lattice_flags_are_diagnosed(capsys):
    code, _, err = run(capsys, "simulate", "sep", "--size", "0", "--density", "1.5")
    assert code == 2
    assert "[lattice.size] size must be at least 1" in err
    assert "[lattice.density] density must lie in [0, 1]" in err


INVALID_LATTICES = [
    (
        ("--size", "6", "--first", "10101010"),
        "size = 6\nfirst = 10101010",
        "",
        ["[lattice.size] size 6 differs from the 8 sites of first"],
    ),
    (
        ("--size", "6", "--first", "10101010", "--coupled"),
        "size = 6\nfirst = 10101010",
        "coupled = true\n",
        ["[lattice.size] size 6 differs from the 8 sites of first"],
    ),
    (
        ("--first", "10101010", "--second", "1010101"),
        "first = 10101010\nsecond = 1010101",
        "",
        ["[lattice.second] configuration lengths differ: first has 8 sites, second 7"],
    ),
    (
        ("--size", "8", "--first", "10101010", "--second", "101010"),
        "size = 8\nfirst = 10101010\nsecond = 101010",
        "",
        [
            "[lattice.size] size 8 differs from the 6 sites of second",
            "[lattice.second] configuration lengths differ: first has 8 sites, second 6",
        ],
    ),
]


@pytest.mark.parametrize(
    "flags,lattice,execution,diagnostics",
    INVALID_LATTICES,
    ids=["size-first", "size-first-coupled", "first-second", "size-first-second"],
)
def test_disagreeing_lattice_is_diagnosed(tmp_path, capsys, flags, lattice, execution, diagnostics):
    # a ring size that is not the length of a start, or starts of two
    # lengths, are refused before any run, from flags and INI files alike
    code, out, err = run(capsys, "simulate", "sep", "--t-end", "2", "--sample-dt", "1", *flags)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["couplex: " + d for d in diagnostics]
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = simulate\n\n[model]\nid = sep\n\n[lattice]\n%s\n\n"
        "[execution]\nt_end = 2\nsample_dt = 1\n%s" % (lattice, execution),
        encoding="utf-8",
    )
    code, _, from_file = run(capsys, "--config", str(path))
    assert code == 2
    assert from_file == err
    if "--second" in flags and "--size" not in flags:  # coupling-table has no --size
        code, _, table_err = run(capsys, "coupling-table", "sep", *flags)
        assert code == 2 and table_err == err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "--config", "/nonexistent/run.ini")
    assert code == 2
    assert "No such file" in err


def test_golden_suite_single_criterion(capsys):
    code, out, _ = run(capsys, "golden-suite", "--criteria", "speed-models")
    assert code == 0
    assert out.startswith("PASS speed-models")
    assert "1/1 criteria passed" in out


def test_golden_suite_unknown_criterion(capsys):
    code, _, err = run(capsys, "golden-suite", "--criteria", "bogus")
    assert code == 2
    assert "unknown criterion" in err


def test_golden_suite_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "golden-suite",
        "--criteria",
        "speed-models",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["ok"] is True
    assert payload["results"][0]["criterion"] == "speed-models"


def _source_tree_env():
    """The environment with the checkout's ``src`` first on PYTHONPATH, so
    that a subprocess imports couplex without an install."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "couplex.cli", "check-monotone", "traffic2", "alpha=0.3", "beta=0.7"],
        capture_output=True,
        text=True,
        env=_source_tree_env(),
    )
    assert proc.returncode == 0
    assert "monotone" in proc.stdout


def test_package_runs_as_a_module_from_the_source_tree():
    # `PYTHONPATH=src python -m couplex zoo` works without an install
    proc = subprocess.run(
        [sys.executable, "-m", "couplex", "zoo"],
        capture_output=True,
        text=True,
        env=_source_tree_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("traffic2(") for line in proc.stdout.splitlines())


def test_simulate_refuses_pair_the_coupling_cannot_serve(capsys):
    code, out, err = run(
        capsys,
        "simulate",
        "traffic2",
        "0",
        "2",
        "--coupled",
        "--kind",
        "strict",
        "--first",
        "000111010110",
        "--second",
        "101100101100",
        "--t-end",
        "5",
        "--seed",
        "3",
    )
    assert code == 2
    assert out == ""
    assert "exceed the marginal rate at jump" in err
    assert "000111010110" in err and "101100101100" in err
    assert "at time 0.0" in err


#: check-monotone --output reports of three specs, exact, float and mixed
#: Fraction/float: the CSV bytes and the SHA-256 of the JSON bytes
PINNED_WITNESS_REPORTS = [
    (
        ('gg_symmetrized', '1', '0', '1', '0'),
        "kind,center,lo,lower,upper,lhs,rhs\n"
        "departure,2,-2,00100,00110,1,0\n"
        "departure,2,-2,00100,00111,1,0\n"
        "departure,2,-2,00100,01100,1,0\n"
        "departure,2,-2,00100,01101,1,0\n"
        "departure,2,-2,00100,10110,1,0\n"
        "departure,2,-2,00100,10111,1,0\n"
        "departure,2,-2,00100,11100,1,0\n"
        "departure,2,-2,00100,11101,1,0\n"
        "departure,2,-2,00101,00111,1,0\n"
        "departure,2,-2,00101,01101,1,0\n"
        "departure,2,-2,00101,10111,1,0\n"
        "departure,2,-2,00101,11101,1,0\n"
        "departure,2,-2,10100,10110,1,0\n"
        "departure,2,-2,10100,10111,1,0\n"
        "departure,2,-2,10100,11100,1,0\n"
        "departure,2,-2,10100,11101,1,0\n"
        "departure,2,-2,10101,10111,1,0\n"
        "departure,2,-2,10101,11101,1,0\n",
        "59622bd681c9e2970127b99711af5bdfc036a1ea368e4d9de8e66089e5c1d2c3",
    ),
    (
        ('traffic2', '0.0', '1.25'),
        "kind,center,lo,lower,upper,lhs,rhs\n"
        "arrival,4,-4,00100,00110,1.25,1\n"
        "arrival,4,-4,00100,01110,1.25,1\n"
        "arrival,4,-4,00100,10110,1.25,1\n"
        "arrival,4,-4,00100,11110,1.25,1\n"
        "arrival,4,-4,01100,01110,1.25,1\n"
        "arrival,4,-4,01100,11110,1.25,1\n"
        "arrival,4,-4,10100,10110,1.25,1\n"
        "arrival,4,-4,10100,11110,1.25,1\n"
        "arrival,4,-4,11100,11110,1.25,1\n",
        "e456a19647c0f52a7ebe172a2c848e9475fddcd6b8653060152359594803f593",
    ),
    (
        ('gg_symmetrized', '3/2', '0.5', '3/2', '1'),
        "kind,center,lo,lower,upper,lhs,rhs\n"
        "departure,2,-2,10101,10111,1.0,0.5\n"
        "departure,2,-2,10101,11101,1.0,0.5\n",
        "39eff1876fd16361a2b1629a2395f8c91957580bdcfdd308cb472da63044c682",
    ),
]


@pytest.mark.parametrize(
    "argv, csv_text, json_sha256",
    PINNED_WITNESS_REPORTS,
    ids=[" ".join(argv) for argv, _, _ in PINNED_WITNESS_REPORTS],
)
def test_check_monotone_output_is_pinned(capsys, tmp_path, argv, csv_text, json_sha256):
    for fmt in ("csv", "json"):
        path = tmp_path / ("report." + fmt)
        code, _, _ = run(capsys, "check-monotone", *argv, "--format", fmt, "--output", str(path))
        assert code == 1
        if fmt == "csv":
            assert path.read_bytes() == csv_text.encode()
        else:
            rows = [line.split(",") for line in csv_text.splitlines()]
            witnesses = json.loads(path.read_text())["witnesses"]
            assert [{k: str(v) for k, v in w.items()} for w in witnesses] == [
                dict(zip(rows[0], row)) for row in rows[1:]
            ]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha256


#: coupled-layer reports pinned by stdout digest: (argv, exit code, stdout
#: lines, stderr, sha256 of stdout).  In the first, the first copy's jump
#: 3 -> 4 is fully coupled, so its lone rate is 0 and it has no row.  The
#: last is the extinction report, which stdout always gives as JSON.
PINNED_COUPLED_REPORTS = [
    (
        ("coupling-table", "traffic2", "0.7", "0.2", "--first", "1001001101",
         "--second", "1101000111", "--kind", "strict"),
        0, 10, "",
        "effe6501567c45ab4e53bf1d31de79194955497cd1dbcf99b9c5df3c55da7dc2",
    ),
    (
        ("exact", "traffic2", "0", "2", "--task", "audit-order", "--size", "5"),
        1, 91, "90 violating transitions\n",
        "53fe850196bfb8870212d692eea0b139b831ef3c7c9ff236daf32be246de2a3e",
    ),
    (
        ("exact", "gg_symmetrized", "1", "0", "1", "0", "--task", "audit-discrepancy",
         "--size", "6", "--kind", "strict"),
        1, 1537, "1536 violating transitions\n",
        "2d166f0bc0ef4893c395354fd79209547548af626f22d77430f8fb2e70db63c7",
    ),
    (
        ("exact", "traffic2", "1/2", "1/2", "--size", "5", "--task", "extinction"),
        0, 8, "",
        "c424c7f8af890a47e252b881f527a2518b7543f3cec028e5bba814895bd6fd97",
    ),
]


@pytest.mark.parametrize(
    "argv, code, lines, err, out_sha256",
    PINNED_COUPLED_REPORTS,
    ids=[" ".join(case[0][:2]) + " " + case[0][-1] for case in PINNED_COUPLED_REPORTS],
)
def test_coupled_reports_are_pinned(capsys, argv, code, lines, err, out_sha256):
    got, out, got_err = run(capsys, *argv)
    assert (got, got_err) == (code, err)
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha256


#: fixed-seed ``simulate`` runs pinned by stdout digest, shaped like
#: PINNED_COUPLED_REPORTS: a composed traffic2 pair at L = 64, a strict
#: gg_symmetrized pair at L = 40 whose coupled keys are named through two
#: join sites, an ordered pair at L = 48, a single chain at L = 200
#: (several blocks of running sums), and two replicas each of random starts
#: at L = 16: coupled samples with sites as CSV and JSON, single samples as
#: JSON, and a discrepancy curve; stderr pins the event counts
PINNED_SIMULATE_REPORTS = [
    (
        ("simulate", "traffic2", "0.7", "0.2",
         "--first", "0100101011111111000010000110010010100010100101011011001101110101",
         "--second", "1010110110101010111000011011100101101001101100000110100010110001",
         "--kind", "attractive", "--t-end", "20", "--sample-dt", "0.5", "--seed", "1", "--sites"),
        0, 41, "1 replica, 579 events\n",
        "03f84e95881e970be117cd8335d2eaa703032b4a61916c404e1ebb690a54fdc7",
    ),
    (
        ("simulate", "gg_symmetrized", "1.5", "0.75", "1", "1.25",
         "--first", "0101101100111011000101101010000111010100",
         "--second", "1100000101100111010000100011101111101100",
         "--kind", "strict", "--t-end", "20", "--sample-dt", "0.5", "--seed", "2", "--sites"),
        0, 41, "1 replica, 579 events\n",
        "86b2fcbd401db60e304f0e738d07eedbc319dd47b3058987f89108c6a148cde3",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2",
         "--first", "100001111000101010000101010011001100000100010100",
         "--second", "100101111000101011000101110111001111000100011101",
         "--kind", "increasing", "--t-end", "20", "--sample-dt", "0.5", "--seed", "3", "--sites"),
        0, 41, "1 replica, 403 events\n",
        "5c7a37689a76cacc40a663ab937813ffb5d5ca013ed90778315eda5f148a20d9",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2", "--size", "200", "--count", "100",
         "--t-end", "20", "--sample-dt", "1", "--seed", "4"),
        0, 21, "1 replica, 1492 events\n",
        "c68f599017652a684ae456599c22fe44cc81c8a37e0bc654bfd2397fd38ec785",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2", "--size", "16", "--count", "8", "--coupled",
         "--replicas", "2", "--sites", "--t-end", "5", "--sample-dt", "0.5", "--seed", "7"),
        0, 21, "2 replicas, 73 events\n",
        "212936af4f29e840e518b9be39f35db20e9b75835122f232910e82c24b5dc21b",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2", "--size", "16", "--count", "8", "--coupled",
         "--replicas", "2", "--sites", "--t-end", "5", "--sample-dt", "0.5", "--seed", "7",
         "--format", "json"),
        0, 762, "2 replicas, 73 events\n",
        "474dea197e8590d5fd90eb5bb10abf8dcbdd01a2119c5cc55e3d46aed5a825d5",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2", "--size", "16", "--count", "8",
         "--replicas", "2", "--t-end", "5", "--sample-dt", "0.5", "--seed", "8", "--format", "json"),
        0, 402, "2 replicas, 64 events\n",
        "7b3a5b8ba9378c3d84312c14224758f92b925a24979fe56cf4379a9b79e66bd9",
    ),
    (
        ("simulate", "traffic2", "0.7", "0.2", "--size", "16", "--count", "8", "--coupled",
         "--observable", "discrepancy_curve", "--replicas", "2", "--t-end", "5", "--seed", "9"),
        0, 86, "2 replicas, 83 events\n",
        "befd83947f7f591bca3d3c755a9a01a62bd444a68b3c260c87d5cd2a228cde17",
    ),
]


@pytest.mark.parametrize(
    "argv, code, lines, err, out_sha256",
    PINNED_SIMULATE_REPORTS,
    ids=["composed traffic2 L=64", "strict gg_symmetrized L=40", "ordered traffic2 L=48",
         "single traffic2 L=200", "coupled replicas csv", "coupled replicas json",
         "single replicas json", "discrepancy_curve replicas"],
)
def test_simulate_reports_are_pinned(capsys, argv, code, lines, err, out_sha256):
    got, out, got_err = run(capsys, *argv)
    assert (got, got_err) == (code, err)
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha256


def test_check_monotone_json_writes_laws_as_typed(capsys, tmp_path):
    path = tmp_path / "law.json"
    code, out, _ = run(capsys, "check-monotone", "sep", "p=1:1/2,-1:1/2", "--format", "json", "--output", str(path))
    assert code == 0
    assert out == "sep(p=1:1/2,-1:1/2): monotone\n"
    report = json.loads(path.read_text())
    assert report["params"] == {"p": "1:1/2,-1:1/2"}
    assert parse_param_value(report["params"]["p"]) == {1: Fraction(1, 2), -1: Fraction(1, 2)}


def test_check_monotone_json_keeps_every_table_row(capsys, tmp_path):
    # exact, float and int rates, one row per pattern of the 3-site window
    rates = ["1/2", "0.25", "1", "3/4", "2", "0.5", "0", "1/3"]
    table = "table=" + "\n".join("1 %s %s" % (format(k, "03b"), r) for k, r in enumerate(rates))
    path = tmp_path / "table.json"
    argv = ("custom_table", "offsets=1,", "dep_radius=0", table)
    code, out, _ = run(capsys, "check-monotone", *argv, "--format", "json", "--output", str(path))
    assert out.startswith("custom_table(offsets=1,, dep_radius=0, table=<8 rows>): ")
    params = json.loads(path.read_text())["params"]
    assert params == {
        "offsets": "1,",
        "dep_radius": "0",
        "table": ["1 %s %s" % (format(k, "03b"), r) for k, r in enumerate(rates)],
    }
    assert parse_param_value("\n".join(params["table"])) == parse_param_value(table[len("table="):])
    assert parse_param_value(params["offsets"]) == (1,)
