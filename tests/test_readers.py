"""Property tests for the four text input formats and their one line rule.

Flow scenes (7 numbers a line), charge lists (4), serialized expansions
(4 a surface point) and serialized polytensors (5 a moment) share one
reader: text after '#' and blank lines are ignored, and any other line
that is not the format's count of finite numbers raises a DomainError
naming that line (exit 3 with "line N:" from the command line).
"""
import contextlib
import io
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import quadpole as qp
from quadpole.cli import main
from quadpole.tensors import MAX_ORDER, triples

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _charges_to_polytensor_text(text):
    """stdout of `quadpole convert charges2poly` on text; a DomainError on exit 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "charges.txt")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["convert", "charges2poly", path])
    if code == 3:
        raise qp.DomainError(err.getvalue())
    assert code == 0, err.getvalue()
    return out.getvalue()


def _scene_rows_text(text):
    return repr([(c.tolist(), R, v.tolist()) for c, R, v in qp.parse_scene(text)])


CLOUD = qp.PointCharges(np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.1]]), np.array([1.0, -0.5]))
EXPANSION = qp.fit_outer(CLOUD, np.array([0.5, 0.0, -1.0]), 1.0, 3)

# name: (valid text, numbers a line, index of the first data line, reader giving text)
FORMATS = {
    "scene": ("0 0 0 1 1 0 0\n4 0 0 1.5 -1 0 0\n0 5 0 0.5 0 0 1\n-4 0 2 1 0 1 0\n", 7, 0,
              _scene_rows_text),
    "charges": ("0.1 0.2 0.3 1\n-0.2 0.1 0 -0.5\n0 0 0.4 0.25\n0.3 -0.3 0.1 2\n", 4, 0,
                _charges_to_polytensor_text),
    "expansion": (qp.expansion_to_text(EXPANSION), 4, 1,
                  lambda text: qp.expansion_to_text(qp.expansion_from_text(text))),
    "polytensor": (qp.polytensor_to_text(qp.moments_from_charges(CLOUD, 3)), 5, 1,
                   lambda text: qp.polytensor_to_text(qp.polytensor_from_text(text))),
}

WORDS = st.one_of(st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"]),
                  st.text(alphabet=string.ascii_letters, min_size=1, max_size=6))
COMMENTS = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " ",
                   max_size=20).map(lambda s: "#" + s)


@st.composite
def bad_lines(draw, line, k):
    """line spoilt: a wrong count of numbers, or one of its k fields a word, nan or inf."""
    if draw(st.booleans()):
        numbers = draw(st.lists(FINITE, min_size=1, max_size=k + 3).filter(lambda v: len(v) != k))
        return " ".join(map(repr, numbers))
    fields = line.split()
    fields[draw(st.integers(0, k - 1))] = draw(WORDS)
    return " ".join(fields)


@pytest.mark.parametrize("p", range(1, MAX_ORDER + 1))
@settings(max_examples=10)
@given(data=st.data())
def test_expansion_text_round_trips_exactly(p, data):
    rule = qp.rule_for_expansion(p)
    exp = qp.SurfaceExpansion(
        center=data.draw(hnp.arrays(float, 3, elements=FINITE)),
        radius=data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        rule=rule, surface_weights=data.draw(hnp.arrays(float, len(rule), elements=FINITE)),
        order=p, kind=data.draw(st.sampled_from(["outer", "inner"])))
    text = qp.expansion_to_text(exp)
    back = qp.expansion_from_text(text)
    assert (back.kind, back.order, back.radius, back.rule) == (exp.kind, p, exp.radius, rule)
    assert back.center.tobytes() == exp.center.tobytes()
    assert back.surface_weights.tobytes() == exp.surface_weights.tobytes()
    assert qp.expansion_to_text(back) == text


@pytest.mark.parametrize("p", range(1, MAX_ORDER + 1))
@settings(max_examples=10)
@given(data=st.data())
def test_polytensor_text_round_trips_exactly(p, data):
    count = sum(len(triples(n)) for n in range(p))
    values = iter(data.draw(hnp.arrays(float, count, elements=FINITE)).tolist())
    pt = qp.Polytensor(p, tuple({t: next(values) for t in triples(n)} for n in range(p)))
    text = qp.polytensor_to_text(pt)
    back = qp.polytensor_from_text(text)
    assert back == pt
    assert qp.polytensor_to_text(back) == text


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
def test_bad_line_is_named(name, data):
    text, k, first, reader = FORMATS[name]
    lines = text.splitlines()
    i = data.draw(st.integers(first, len(lines) - 1))
    lines[i] = data.draw(bad_lines(lines[i], k))
    with pytest.raises(qp.DomainError, match="line %d:" % (i + 1)):
        reader("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
def test_comments_and_blank_lines_change_nothing(name, data):
    text, _, _, reader = FORMATS[name]
    lines = text.splitlines()
    for i in data.draw(st.lists(st.integers(0, len(lines) - 1), max_size=4)):
        lines[i] += " " + data.draw(COMMENTS)
    for _ in range(data.draw(st.integers(1, 5))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.one_of(COMMENTS, st.sampled_from(["", "   ", "\t"]))))
    assert reader("\n".join(lines) + "\n") == reader(text)
