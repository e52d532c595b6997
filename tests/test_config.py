from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from couplex.cli import main
from couplex.config import (
    ConfigError,
    RunConfig,
    build_spec,
    format_number,
    load_config,
    parse_config,
    parse_number,
    parse_param_value,
)


def test_parse_number_modes():
    assert parse_number("2") == 2 and isinstance(parse_number("2"), int)
    assert parse_number("7/10") == F(7, 10) and isinstance(parse_number("7/10"), F)
    assert parse_number("0.7") == 0.7 and isinstance(parse_number("0.7"), float)


numbers = st.one_of(
    st.integers(-100, 100),
    st.fractions(max_denominator=40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@given(numbers)
def test_number_round_trip(value):
    back = parse_number(format_number(value))
    assert back == value
    if isinstance(value, F) and value.denominator > 1:
        assert isinstance(back, F)


def test_parse_param_value_forms():
    assert parse_param_value("3") == 3
    assert parse_param_value("1:1/2, -1:1/2") == {1: F(1, 2), -1: F(1, 2)}
    assert parse_param_value("1,2") == (1, 2)
    assert parse_param_value("1,") == (1,)
    table = parse_param_value("1 010 1/2\n1 110 3/4")
    assert table == {(1, "010"): F(1, 2), (1, "110"): F(3, 4)}
    with pytest.raises(ValueError, match="offset pattern rate"):
        parse_param_value("1 010 1/2\n1 010")


def test_parse_param_value_reads_each_written_form():
    assert parse_param_value("7/12") == F(7, 12) and isinstance(parse_param_value("7/12"), F)
    assert parse_param_value("-2:1/2, 1:3") == {-2: F(1, 2), 1: 3}
    assert parse_param_value("-3,") == (-3,)
    assert parse_param_value("-3, 2") == (-3, 2)
    table = parse_param_value("\n    1 000 1\n    1 011 3/4")
    assert table == {(1, "000"): 1, (1, "011"): F(3, 4)}


MINIMAL = "[run]\ncommand = zoo\n"


def test_minimal_config():
    assert parse_config(MINIMAL) == (RunConfig(command="zoo"), set())


def test_full_config():
    text = (
        "[run]\ncommand = simulate\n\n"
        "[model]\nid = traffic2\nalpha = 7/10\nbeta = 1/5\n\n"
        "[lattice]\nsize = 12\ndensity = 0.25\nfirst = 1010\nsecond = 1100\n\n"
        "[execution]\nseed = 42\nreplicas = 3\nt_end = 250.0\nsample_dt = 0.5\n"
        "kind = attractive\ntask = extinction\ncoupled = true\n\n"
        "[output]\npath = out.csv\nformat = csv\n"
    )
    cfg, given = parse_config(text)
    assert cfg == RunConfig(
        command="simulate",
        model="traffic2",
        params={"alpha": F(7, 10), "beta": F(1, 5)},
        size=12,
        density=0.25,
        first=(1, 0, 1, 0),
        second=(1, 1, 0, 0),
        seed=42,
        replicas=3,
        t_end=250.0,
        sample_dt=0.5,
        kind="attractive",
        task="extinction",
        coupled=True,
        path="out.csv",
        format="csv",
    )
    # a key set to its default is still a key the file sets
    assert given == {"id", "size", "density", "first", "second", "seed", "replicas", "t_end",
                     "sample_dt", "kind", "task", "coupled", "path", "format"}


def test_law_and_table_params():
    cfg, given = parse_config("[run]\ncommand = check-monotone\n\n[model]\nid = sep\np = -1:1/2, 1:1/2\n")
    assert cfg == RunConfig(command="check-monotone", model="sep", params={"p": {1: F(1, 2), -1: F(1, 2)}})
    assert given == {"id"}
    lines = "".join("\n    1 %s 1" % format(k, "03b") for k in range(8))
    text = "[run]\ncommand = check-monotone\n\n[model]\nid = custom_table\noffsets = 1,\n"
    text += "dep_radius = 0\ntable =%s\n" % lines
    cfg, _ = parse_config(text)
    assert cfg.params == {"offsets": (1,), "dep_radius": 0, "table": {(1, format(k, "03b")): 1 for k in range(8)}}


def test_fractional_dep_radius_in_a_file_is_refused(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\ncommand = check-monotone\n\n[model]\nid = custom_table\noffsets = 1,\n"
        "dep_radius = 1.5\ntable = 1 011000 1\n"
    )
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "couplex: [model] dep_radius must be an integer >= 0, got 1.5\n")


def test_one_line_table_in_ini():
    # the value reaches the parser as "\n1 110 1", stripped to one line
    text = "[run]\ncommand = check-monotone\n\n[model]\nid = custom_table\noffsets = 1,\n"
    text += "dep_radius = 0\ntable =\n    1 110 1\n"
    cfg, _ = parse_config(text)
    assert cfg.params == {"offsets": (1,), "dep_radius": 0, "table": {(1, "110"): 1}}


def test_one_line_table_as_key_value(capsys):
    code = main(["check-monotone", "custom_table", "offsets=1,", "dep_radius=0", "table=1 110 1/2"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("custom_table(offsets=1,, dep_radius=0, table=<1 row>): ")
    # three fields with ':' or ',' stay a law or a tuple
    assert parse_param_value("1:1/2, -1:1/2, 2:1") == {1: F(1, 2), -1: F(1, 2), 2: 1}
    assert parse_param_value("1, 2, 3") == (1, 2, 3)


@pytest.mark.parametrize(
    "argv, name, want",
    [
        (["sep", "p=1:1/2,-1:1/2"], "p", {1: F(1, 2), -1: F(1, 2)}),
        (["two_star_step", "p=1:0.3,2:7/10"], "p", {1: 0.3, 2: F(7, 10)}),
        (["speed_change_increasing", "q=1:2,-1:1/3"], "q", {1: 2, -1: F(1, 3)}),
        (["custom_table", "offsets=1,", "dep_radius=0", "table=1 110 1/2"], "offsets", (1,)),
    ],
)
def test_model_label_values_parse_back(capsys, argv, name, want):
    # a law or a tuple prints as it is typed and parses back to the same
    # value, never as a Python repr
    main(["check-monotone", *argv])
    label = capsys.readouterr().out.splitlines()[0]
    assert "Fraction(" not in label and "{" not in label
    value = label.split("%s=" % name, 1)[1].split(", ")[0].split(")")[0]
    assert parse_param_value(value) == want


def test_unknown_sections_and_keys_are_collected():
    text = "[run]\ncommand = zoo\nbogus = 1\n\n[mystery]\nx = 2\n\n[lattice]\nsize = 0\ncolor = red\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    rendered = [str(d) for d in err.value.diagnostics]
    assert any("mystery" in d and "unknown section" in d for d in rendered)
    assert any("run.bogus" in d for d in rendered)
    assert any("lattice.color" in d for d in rendered)
    assert any("lattice.size" in d and "at least 1" in d for d in rendered)


def test_missing_run_section():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config("[model]\nid = sep\n")


def test_bad_values_diagnosed():
    text = (
        "[run]\ncommand = warp\n\n[model]\nid = nosuch\n\n"
        "[execution]\nreplicas = 0\nkind = sideways\nt_end = -3\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    rendered = "\n".join(str(d) for d in err.value.diagnostics)
    assert "unknown command" in rendered
    assert "unknown model" in rendered
    assert "replicas must be at least 1" in rendered
    assert "unknown kind" in rendered
    assert "t_end must be positive" in rendered


def test_model_parameters_are_checked_against_factory():
    text = "[run]\ncommand = zoo\n\n[model]\nid = traffic2\nalpha = 1\n"
    with pytest.raises(ConfigError, match="bad parameters"):
        parse_config(text)


def test_build_spec_requires_model():
    with pytest.raises(ConfigError, match="needs a model"):
        build_spec(RunConfig(command="check-monotone"))
    spec = build_spec(RunConfig(command="check-monotone", model="sep"))
    assert spec.name == "sep"


def test_load_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_config(str(path)) == (RunConfig(command="zoo"), set())
