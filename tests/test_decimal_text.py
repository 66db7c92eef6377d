import random
import sys

import pytest

from chordal_lab import approx_count_chordal, decimal_string
from chordal_lab.decimal_text import STR_BITS

GUARD = getattr(sys.int_info, "default_max_str_digits", None)


@pytest.fixture
def default_guard():
    """The interpreter's int-to-str digit guard at its default for the test."""
    if GUARD is None:
        pytest.skip("interpreter has no int-to-str digit guard")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(GUARD)
    yield
    sys.set_int_max_str_digits(saved)


def from_digits(text: str) -> int:
    """int(text) in chunks that stay below the digit guard."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("digits", [1, 20, 3000, 3914, 4299, 4300, 4301, 4400, 20_000])
def test_matches_str_on_both_sides_of_the_guard(default_guard, digits):
    rng = random.Random(digits)
    text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
    value = from_digits(text)
    if digits <= GUARD:
        assert str(value) == text
    else:
        with pytest.raises(ValueError):
            str(value)
    assert decimal_string(value) == text
    assert decimal_string(-value) == "-" + text
    assert sys.get_int_max_str_digits() == GUARD


@pytest.mark.parametrize("bits", [STR_BITS - 1, STR_BITS, STR_BITS + 1, STR_BITS + 1024])
def test_matches_str_across_the_fallback(default_guard, bits):
    value = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
    assert decimal_string(value) == str(value)


def test_zero():
    assert decimal_string(0) == "0"


def test_large_count_prints_under_default_guard(default_guard):
    value = approx_count_chordal(1000, "1e-3")
    text = decimal_string(value)
    assert len(text) > 75_000
    sys.set_int_max_str_digits(0)  # the reference needs the guard lifted
    assert text == str(value)
