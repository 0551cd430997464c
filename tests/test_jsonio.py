import ast
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np
import pytest

import statenet
from statenet.jsonio import atomic_write, count, decode, malformed, numbers


@dataclass(frozen=True)
class Inner:
    size: int = 1


@dataclass(frozen=True)
class Outer:
    rate: float = 0.5
    flag: bool = False
    depth: int | None = None
    inner: Inner = field(default_factory=Inner)


def test_int_for_float_is_stored_as_float():
    out = decode(Outer, {"rate": 1})
    assert type(out.rate) is float and out.rate == 1.0


@pytest.mark.parametrize("doc", [
    {"rate": True}, {"rate": "1e3"}, {"flag": "false"}, {"flag": 0},
    {"rate": [0.5]}, {"flag": None}, {"depth": [2]}, {"depth": 2.0},
    {"inner": {"size": True}}, {"inner": 5},
    {"rate": float("nan")}, {"rate": float("inf")}, {"rate": 10**400},
    {"inner": {"size": 1.0}},
])
def test_value_of_another_type_is_refused(doc):
    with pytest.raises(ValueError, match="must be"):
        decode(Outer, doc)


@pytest.mark.parametrize("doc,message", [
    ({"rate": float("nan")}, "key 'rate' must be finite float, got nan"),
    ({"rate": 10**400}, "key 'rate' must be finite float, got 1000"),
])
def test_message_says_a_float_must_be_finite(doc, message):
    with pytest.raises(ValueError) as exc:
        decode(Outer, doc)
    assert str(exc.value).startswith("Outer " + message)


def test_count_takes_only_non_negative_integers():
    assert count({"n": 0}, "n") == 0 and count({"n": 7}, "n") == 7
    for value in (-1, True, 2.0, "3", None, [1]):
        with pytest.raises(ValueError, match=r"^n must be a non-negative "
                           r"integer, got "):
            count({"n": value}, "n")


def test_numbers_reads_a_list_or_a_table_as_floats():
    table = numbers({"x": [[1, 0.5], [2, -3.0]]}, "x", 2)
    assert table.dtype == np.float64
    assert table.tolist() == [[1.0, 0.5], [2.0, -3.0]]
    assert numbers({"p": [4, 0.25]}, "p", 1).tolist() == [4.0, 0.25]


def test_numbers_keeps_the_depth_of_an_empty_list():
    assert numbers({"p": []}, "p", 1).shape == (0,)
    assert numbers({"x": []}, "x", 2).shape == (0, 0)


@pytest.mark.parametrize("value,ndim,rule", [
    ([[1.0, 2.0], [3.0]], 2, "be a list of equally long lists of numbers"),
    ([1.0, 2.0], 2, "be a list of equally long lists of numbers"),
    ([[1.0], [2.0]], 1, "hold numbers only"),
    ("abc", 1, "be a list of numbers"),
    ({"a": 1.0}, 2, "be a list of equally long lists of numbers"),
    ([[1.0], [True]], 2, "hold numbers only"),
    ([0.5, False], 1, "hold numbers only"),
    ([[1.0], ["2.0"]], 2, "hold numbers only"),
    ([1.0, None], 1, "hold numbers only"),
    ([[1.0], [float("nan")]], 2, "hold finite numbers only"),
    ([1.0, float("inf")], 1, "hold finite numbers only"),
    ([float("1e400")], 1, "hold finite numbers only"),
    ([[10**400]], 2, "hold finite numbers only"),
])
def test_numbers_refuses_what_is_not_a_finite_number_array(value, ndim, rule):
    with pytest.raises(ValueError) as exc:
        numbers({"k": value}, "k", ndim)
    assert str(exc.value) == f"k must {rule}"


class ReadError(ValueError):
    pass


def test_malformed_passes_its_own_error_unchanged():
    with pytest.raises(ReadError) as exc:
        with malformed(ReadError, "line 2"):
            raise ReadError("x must hold numbers only")
    assert str(exc.value) == "x must hold numbers only"


def test_malformed_names_a_parse_failure_with_where():
    with pytest.raises(ReadError) as exc:
        with malformed(ReadError, "line 2"):
            {}["x"]
    assert str(exc.value) == "line 2: KeyError: 'x'"
    assert type(exc.value.__cause__) is KeyError


def test_malformed_leaves_other_failures_alone():
    with pytest.raises(RuntimeError, match="a bug"):
        with malformed(ReadError, "line 2"):
            raise RuntimeError("a bug")


PARSE_FAILURES = {"KeyError", "TypeError", "ValueError", "AttributeError"}


def test_only_jsonio_turns_parse_failures_into_errors():
    # every reader goes through ``malformed``: no second copy of the rule
    package = pathlib.Path(statenet.__file__).parent
    copies = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ExceptHandler)
                    and isinstance(node.type, ast.Tuple)
                    and PARSE_FAILURES <= {getattr(e, "id", None)
                                           for e in node.type.elts}):
                copies.append(path.name)
    assert copies == ["jsonio.py"]


def test_unknown_keys_refused_at_any_depth():
    with pytest.raises(ValueError, match=r"unknown keys \['colour'\]"):
        decode(Outer, {"colour": 1})
    with pytest.raises(ValueError, match="Inner has unknown keys"):
        decode(Outer, {"inner": {"colour": 1}})


def test_defaults_then_document_then_given():
    assert decode(Outer, {}) == Outer()
    out = decode(Outer, {"depth": 3, "rate": 0.25, "inner": {"size": 7}},
                 depth=None, rate=0.75, inner={"size": 2})
    assert out == Outer(depth=3, rate=0.75, inner=Inner(size=2))


def test_atomic_write_replaces_or_keeps(tmp_path):
    path = str(tmp_path / "f.txt")
    with atomic_write(path) as fh:
        fh.write("old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("ne")
            raise RuntimeError("killed")
    assert open(path).read() == "old"
    assert os.listdir(tmp_path) == ["f.txt"]
    with atomic_write(path) as fh:
        fh.write("new")
    assert open(path).read() == "new"
