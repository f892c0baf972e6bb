"""Tests for the square QAM alphabet and its Gray-labeled PAM axes."""

import numpy as np
import pytest

from sisodet import bits_to_symbol, build_constellation, symbol_to_bits

ALL_ORDERS = [4, 16, 64, 256]


class TestPamAxis:
    def test_qpsk_axis_points(self):
        """Order 4 gives the two unit-energy amplitudes +-1/sqrt(2)."""
        c = build_constellation(4)
        np.testing.assert_allclose(
            c.real_axis.points, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15
        )
        np.testing.assert_allclose(c.real_axis.spacing, np.sqrt(2), atol=1e-15)

    def test_16qam_axis_points(self):
        """Order 16 gives {3,1,-1,-3}/sqrt(10) with spacing 2/sqrt(10)."""
        c = build_constellation(16)
        np.testing.assert_allclose(
            c.real_axis.points, np.array([3, 1, -1, -3]) / np.sqrt(10), atol=1e-15
        )
        np.testing.assert_allclose(c.real_axis.spacing, 2 / np.sqrt(10), atol=1e-15)

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_descending_uniform_spacing(self, M):
        """Amplitudes descend with one uniform gap."""
        axis = build_constellation(M).real_axis
        diffs = axis.points[:-1] - axis.points[1:]
        np.testing.assert_allclose(diffs, axis.spacing, atol=1e-13)

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_axis_carries_half_energy(self, M):
        """Each axis contributes half of the unit symbol energy."""
        axis = build_constellation(M).real_axis
        np.testing.assert_allclose(np.mean(axis.points**2), 0.5, atol=1e-12)

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_gray_adjacency(self, M):
        """Labels of neighboring amplitudes differ in exactly one bit."""
        axis = build_constellation(M).real_axis
        for k in range(axis.L - 1):
            assert np.sum(axis.labels[k] != axis.labels[k + 1]) == 1


class TestConstellation:
    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_unit_average_energy(self, M):
        c = build_constellation(M)
        np.testing.assert_allclose(np.mean(np.abs(c.symbols) ** 2), 1.0, atol=1e-12)

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_label_bijection(self, M):
        """Every q-bit pattern labels exactly one symbol."""
        c = build_constellation(M)
        as_ints = {int("".join(map(str, row)), 2) for row in c.labels}
        assert as_ints == set(range(M))

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_bit_subsets_balanced(self, M):
        """Each (bit position, value) subset holds exactly M/2 symbols."""
        c = build_constellation(M)
        for n in range(c.q):
            assert int(np.sum(c.labels[:, n])) == M // 2

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_split_bit_mask_columns(self, M):
        """``split_bit_index`` splits each bit-mask column: row n lists the
        symbols with bit n set, row q + n those with it clear, ascending;
        read-only."""
        c = build_constellation(M)
        split = c.split_bit_index
        assert split.shape == (2 * c.q, M // 2)
        for n in range(c.q):
            np.testing.assert_array_equal(split[n], np.flatnonzero(c.labels[:, n] == 1))
            np.testing.assert_array_equal(split[c.q + n], np.flatnonzero(c.labels[:, n] == 0))
        assert not split.flags.writeable

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_symbol_index_inverts_axis_pairs(self, M):
        """``symbol_index[a, b]`` indexes the symbol whose bytes are those of
        ``points[a] + 1j*points[b]``; every symbol appears exactly once, and
        the table is read-only."""
        c = build_constellation(M)
        table = c.symbol_index
        L = c.real_axis.L
        points = c.real_axis.points
        assert table.shape == (L, L)
        assert sorted(table.ravel().tolist()) == list(range(M))
        assert c.symbols[table].tobytes() == (points[:, None] + 1j * points[None, :]).tobytes()
        assert not table.flags.writeable

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_axis_separability(self, M):
        """Real/imag parts decode independently from the two bit halves."""
        c = build_constellation(M)
        half = c.q // 2
        for k in range(M):
            re_part = c.symbols[k].real
            im_part = c.symbols[k].imag
            a = np.flatnonzero(
                np.all(c.real_axis.labels == c.labels[k, :half], axis=1)
            )[0]
            b = np.flatnonzero(
                np.all(c.real_axis.labels == c.labels[k, half:], axis=1)
            )[0]
            np.testing.assert_allclose(re_part, c.real_axis.points[a], atol=0)
            np.testing.assert_allclose(im_part, c.real_axis.points[b], atol=0)

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_matches_per_symbol_gray_decode(self, M):
        """Symbols and labels equal a per-symbol Gray decode, bit for bit."""
        c = build_constellation(M)
        L, half = c.real_axis.L, c.q // 2

        def gray_decode(g):
            n = 0
            while g:
                n ^= g
                g >>= 1
            return n

        for k in range(L):
            gray = k ^ (k >> 1)
            assert c.real_axis.labels[k].tolist() == [(gray >> (half - 1 - n)) & 1 for n in range(half)]
        for k in range(M):
            a = gray_decode(k >> half)
            b = gray_decode(k & (L - 1))
            assert c.symbols[k] == c.real_axis.points[a] + 1j * c.real_axis.points[b]
            assert c.labels[k].tolist() == (
                c.real_axis.labels[a].tolist() + c.real_axis.labels[b].tolist()
            )

    def test_gray_property_nearest_neighbors(self):
        """Nearest neighbors along either axis differ in exactly one bit."""
        c = build_constellation(64)
        for k in range(c.M):
            for m in range(k + 1, c.M):
                gap = c.symbols[k] - c.symbols[m]
                if abs(gap - c.real_axis.spacing) < 1e-12 or abs(
                    gap - 1j * c.real_axis.spacing
                ) < 1e-12:
                    assert np.sum(c.labels[k] != c.labels[m]) == 1

    @pytest.mark.parametrize("bad", [3, 8, 32, 0, -4, 1024])
    def test_invalid_order_rejected(self, bad):
        with pytest.raises(ValueError):
            build_constellation(bad)

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_order(self, integer):
        """A numpy integer builds the same alphabet as the Python int."""
        c = build_constellation(integer(16))
        ref = build_constellation(16)
        assert type(c.M) is int and c.M == 16 and c.q == 4
        assert c.symbols.tobytes() == ref.symbols.tobytes()
        assert c.labels.tobytes() == ref.labels.tobytes()

    @pytest.mark.parametrize("bad", [16.0, "16"])
    def test_non_integral_order_named(self, bad):
        with pytest.raises(ValueError, match=rf"constellation order .* got {bad!r}$"):
            build_constellation(bad)


class TestBitMapping:
    def test_qpsk_all_zero_bits_fixed_corner(self):
        """The all-zero label maps to the same corner on every build."""
        first = bits_to_symbol(build_constellation(4), [0, 0])
        again = bits_to_symbol(build_constellation(4), [0, 0])
        assert first == again
        np.testing.assert_allclose(first, (1 + 1j) / np.sqrt(2), atol=1e-15)

    def test_single_real_bit_flip_keeps_imag(self):
        """Labels differing in one real-axis bit share the imaginary part."""
        c = build_constellation(16)
        bits = np.array([0, 1, 1, 0])
        flipped = bits.copy()
        flipped[1] ^= 1
        s1 = bits_to_symbol(c, bits)
        s2 = bits_to_symbol(c, flipped)
        assert s1.imag == s2.imag
        assert s1.real != s2.real

    @pytest.mark.parametrize("M", ALL_ORDERS)
    def test_round_trip_all_labels(self, M):
        c = build_constellation(M)
        for k in range(M):
            bits = symbol_to_bits(c, k)
            assert bits_to_symbol(c, bits) == c.symbols[k]

    def test_symbol_to_bits_index_zero(self):
        c = build_constellation(16)
        np.testing.assert_array_equal(symbol_to_bits(c, 0), c.labels[0])

    def test_symbol_to_bits_out_of_range(self):
        c = build_constellation(16)
        with pytest.raises(ValueError):
            symbol_to_bits(c, 16)
        with pytest.raises(ValueError):
            symbol_to_bits(c, -1)

    @pytest.mark.parametrize("bad", [2.5, "3", None])
    def test_symbol_to_bits_non_integer_named(self, bad):
        """A non-integer index is named, as a constellation order is, not
        left to numpy's indexing error."""
        with pytest.raises(ValueError, match=f"symbol index must be an integer, got {bad!r}"):
            symbol_to_bits(build_constellation(16), bad)

    def test_symbol_to_bits_numpy_integer_index(self):
        c = build_constellation(16)
        np.testing.assert_array_equal(symbol_to_bits(c, np.int64(5)), c.labels[5])

    def test_symbol_to_bits_all_distinct(self):
        c = build_constellation(64)
        seen = {tuple(symbol_to_bits(c, k)) for k in range(c.M)}
        assert len(seen) == c.M

    def test_wrong_bit_count_rejected(self):
        c = build_constellation(16)
        with pytest.raises(ValueError):
            bits_to_symbol(c, [0, 1, 0])

    def test_non_binary_bits_rejected(self):
        c = build_constellation(4)
        with pytest.raises(ValueError):
            bits_to_symbol(c, [0, 2])
