import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccover.sequences import (
    LengthSequence,
    epsilon_window,
    generate,
    parse_sequence_spec,
    threshold_index,
)


class TestGenerate:
    def test_harmonic_capped(self):
        seq = LengthSequence.harmonic(c=1, cap=0.99)
        np.testing.assert_allclose(generate(seq, 3), [0.99, 0.5, 1 / 3], rtol=0, atol=0)

    def test_constant(self):
        seq = LengthSequence.constant(0.3, cap=0.99)
        np.testing.assert_array_equal(generate(seq, 2), [0.3, 0.3])

    def test_inverse_sqrt_cap_binds_through_k4(self):
        # 1/sqrt(4) = 0.5 > 0.49, so the cap still binds at k=4
        seq = LengthSequence.inverse_sqrt(c=1, cap=0.49)
        np.testing.assert_array_equal(generate(seq, 4), [0.49] * 4)

    def test_power_decay(self):
        seq = LengthSequence.power_decay(c=0.8, alpha=2.0, cap=0.99)
        np.testing.assert_allclose(generate(seq, 3), [0.8, 0.2, 0.8 / 9])

    def test_explicit_prefix_copy(self):
        seq = LengthSequence.explicit([0.4, 0.3, 0.1])
        out = generate(seq, 2)
        np.testing.assert_array_equal(out, [0.4, 0.3])
        out[0] = 0.9
        np.testing.assert_array_equal(generate(seq, 2), [0.4, 0.3])

    def test_explicit_too_short(self):
        seq = LengthSequence.explicit([0.4, 0.3])
        with pytest.raises(ValueError, match="explicit list has 2"):
            generate(seq, 3)

    def test_explicit_not_monotone(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            LengthSequence.explicit([0.3, 0.4])

    def test_explicit_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            LengthSequence.explicit([1.0, 0.5])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            LengthSequence.explicit([0.5, 0.0])

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            LengthSequence.harmonic(c=0.0)
        with pytest.raises(ValueError, match="cap"):
            LengthSequence.harmonic(c=1.0, cap=1.0)
        with pytest.raises(ValueError, match="family"):
            LengthSequence("geometric")
        with pytest.raises(ValueError, match="alpha"):
            LengthSequence.power_decay(c=1.0, alpha=float("nan"))

    @pytest.mark.parametrize("seq", [
        LengthSequence.harmonic(c=5e-324),
        LengthSequence.power_decay(c=1.0, alpha=1e300),
    ], ids=["harmonic-subnormal-c", "power-decay-huge-alpha"])
    def test_underflow_to_zero_raises(self, seq):
        # c/k and c*k**-alpha reach 0.0 at k = 2; the first term is still positive.
        assert generate(seq, 1)[0] > 0.0
        with pytest.raises(ValueError, match="term 2 .* must be positive"):
            generate(seq, 2)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be"):
            generate(LengthSequence.constant(0.5), 0)

    def test_pure_and_deterministic(self):
        seq = LengthSequence.power_decay(c=1.3, alpha=0.7, cap=0.7)
        np.testing.assert_array_equal(generate(seq, 50), generate(seq, 50))

    @pytest.mark.parametrize("seq", [
        LengthSequence.constant(0.3),
        LengthSequence.harmonic(c=1.7, cap=0.49),
        LengthSequence.inverse_sqrt(c=0.9, cap=0.49),
        LengthSequence.power_decay(c=1.3, alpha=0.75, cap=0.7),
        LengthSequence.explicit(np.linspace(0.9, 0.01, 5000)),
    ], ids=["constant", "harmonic", "inverse-sqrt", "power-decay", "explicit"])
    def test_start_gives_the_same_bits_as_a_prefix(self, seq):
        full = generate(seq, 5000)
        for start in (0, 1, 4095, 4096, 4999):
            part = generate(seq, 5000, start=start)
            np.testing.assert_array_equal(part.view(np.uint64), full[start:].view(np.uint64))

    def test_start_must_lie_below_n(self):
        seq = LengthSequence.harmonic()
        for start in (-1, 5):
            with pytest.raises(ValueError, match="start must"):
                generate(seq, 5, start=start)


family_params = st.tuples(
    st.sampled_from(["constant", "harmonic", "inverse_sqrt", "power_decay"]),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=200),
)


@given(family_params)
@settings(max_examples=200)
def test_generate_invariants(params):
    family, c, alpha, cap, n = params
    seq = LengthSequence(family, c=c, alpha=alpha, cap=cap)
    out = generate(seq, n)
    assert out.shape == (n,)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert np.all(np.diff(out) <= 0.0)


class TestEpsilonWindow:
    SEQ = LengthSequence.explicit([0.3, 0.2])

    def test_inside_window(self):
        win = epsilon_window(self.SEQ, 0.25)
        assert win.eps == 0.25
        assert win.upper == 0.7
        assert win.bound_path_ok is True

    def test_bound_path_flag(self):
        win = epsilon_window(self.SEQ, 0.6)
        assert win.upper == 0.7
        assert win.bound_path_ok is False

    def test_boundary_excluded(self):
        with pytest.raises(ValueError, match="1 - l1"):
            epsilon_window(self.SEQ, 0.7)
        with pytest.raises(ValueError, match="1 - l1"):
            epsilon_window(self.SEQ, 0.0)
        with pytest.raises(ValueError):
            epsilon_window(self.SEQ, -0.1)

    @given(st.floats(min_value=1e-6, max_value=0.699999))
    @settings(max_examples=100)
    def test_bound_path_ok_iff_below_half(self, eps):
        assert epsilon_window(self.SEQ, eps).bound_path_ok == (eps < 0.5)


class TestThresholdIndex:
    def test_count_by_inspection(self):
        seq = LengthSequence.explicit([0.4, 0.3, 0.1])
        assert threshold_index(seq, 0.25, 3) == 2

    def test_all_below(self):
        seq = LengthSequence.explicit([0.1, 0.05])
        assert threshold_index(seq, 0.25, 2) == 0

    def test_all_above(self):
        seq = LengthSequence.explicit([0.4, 0.3, 0.1])
        assert threshold_index(seq, 0.05, 3) == 3

    def test_nondecreasing_as_eps_shrinks(self):
        seq = LengthSequence.inverse_sqrt(c=1, cap=0.45)
        values = [threshold_index(seq, eps, 100) for eps in (0.4, 0.3, 0.2, 0.1, 0.05)]
        assert values == sorted(values)
        # zero exactly when l1 < eps
        assert threshold_index(seq, 0.46, 100) == 0
        assert threshold_index(seq, 0.45, 100) > 0


class TestParseSpec:
    def test_parametric(self):
        seq = parse_sequence_spec("harmonic:c=1,cap=0.99")
        assert seq.family == "harmonic"
        assert seq.c == 1.0 and seq.cap == 0.99

    def test_hyphenated_family(self):
        seq = parse_sequence_spec("inverse-sqrt:c=2,cap=0.49")
        assert seq.family == "inverse_sqrt"
        seq = parse_sequence_spec("power-decay:c=1,alpha=0.75,cap=0.5")
        assert seq.alpha == 0.75

    def test_explicit_file(self, tmp_path):
        path = tmp_path / "ls.txt"
        path.write_text("0.4\n0.3\n0.1\n")
        seq = parse_sequence_spec(f"explicit:file={path}")
        np.testing.assert_array_equal(generate(seq, 3), [0.4, 0.3, 0.1])

    def test_explicit_file_with_commas(self, tmp_path):
        path = tmp_path / "ls.txt"
        path.write_text("0.4, 0.3\n0.1\n")
        seq = parse_sequence_spec(f"explicit:file={path}")
        np.testing.assert_array_equal(generate(seq, 3), [0.4, 0.3, 0.1])

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sequence parameter"):
            parse_sequence_spec("harmonic:q=1")
        with pytest.raises(ValueError, match="key=value"):
            parse_sequence_spec("harmonic:c")
        with pytest.raises(ValueError, match="not a number"):
            parse_sequence_spec("harmonic:c=abc")
        with pytest.raises(ValueError, match="duplicate sequence parameter 'c'"):
            parse_sequence_spec("harmonic:c=1,c=0.5,cap=0.49")
        with pytest.raises(ValueError, match="duplicate sequence parameter 'file'"):
            parse_sequence_spec("explicit:file=a.txt, file=b.txt")
        for family in ("constant", "harmonic", "inverse-sqrt"):
            with pytest.raises(ValueError, match="power-decay family only"):
                parse_sequence_spec(f"{family}:c=1,alpha=3")
        with pytest.raises(ValueError, match="file=PATH"):
            parse_sequence_spec("explicit:c=1")
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(ValueError, match="no values"):
            parse_sequence_spec(f"explicit:file={empty}")
