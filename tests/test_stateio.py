"""State file parsing and report serialization."""

import io

import numpy as np
import pytest

from negfonts import aggregate_invariants, make_state, random_state
from negfonts.errors import NonFiniteResult, ParseError, QubitOutOfRange, ZeroVector
from negfonts.stateio import cnum, dump_report, four_report_dict, read_state, write_state


def round_trip(state):
    buf = io.StringIO()
    write_state(buf, state)
    buf.seek(0)
    return read_state(buf)


def test_round_trip_exact():
    for trial in range(10):
        n = 2 + trial % 3
        s = random_state(n, (42, trial))
        back = round_trip(s)
        assert back.n_qubits == n
        np.testing.assert_array_equal(back.amps, s.amps)


def test_comments_and_implicit_imag():
    text = "# a comment\nn 2\n00 0.5\n11 -0.5 0.25  # trailing\n"
    s = read_state(io.StringIO(text))
    assert s.amplitude((0, 0)) == 0.5
    assert s.amplitude((1, 1)) == complex(-0.5, 0.25)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("00 1.0\n", "header"),
        ("n 7\n", "2..6"),
        ("n 2\n000 1.0\n", "bitstring"),
        ("n 2\n00 1.0\n00 2.0\n", "duplicate"),
        ("n 2\n00 zebra\n", "bad number"),
        ("n 2\n00 1.0 2.0 3.0\n", "expected"),
        ("", "empty"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            read_state(io.StringIO(text))
        assert fragment.split()[0] in str(err.value)


def test_zero_state_rejected():
    with pytest.raises(ZeroVector):
        read_state(io.StringIO("n 2\n00 0.0 0.0\n"))


def test_cnum_fields():
    entry = cnum(3 - 4j)
    assert entry == {"re": 3.0, "im": -4.0, "abs": 5.0}


def test_write_skips_zero_amplitudes():
    amps = np.zeros(8)
    amps[3] = 1.0
    buf = io.StringIO()
    write_state(buf, make_state(3, amps))
    lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith(("#", "n"))]
    assert lines == ["011 1 0"]


@pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
def test_dump_report_rejects_non_finite(value):
    buf = io.StringIO()
    with pytest.raises(NonFiniteResult):
        dump_report({"ok": 1.0, "bad": cnum(complex(value, 0.0))}, buf)
    assert buf.getvalue() == ""


def test_four_report_dict_checks_the_triple():
    # triple 0 would read the last triple as the headline
    report = aggregate_invariants(random_state(4, 3))
    assert four_report_dict(report, 2)["headline"]["singled"] == 2
    for triple in (0, 5, 4.0, True):
        with pytest.raises(QubitOutOfRange):
            four_report_dict(report, triple)
