import io
import random

import numpy as np
import pytest

import naive
from rellaws import (
    Implicant,
    Law,
    PropertyId,
    VectorCensus,
    format_law,
    law_line,
    laws_from_csv,
    laws_to_csv,
    mine,
    mining,
    parse_law_text,
)


def census_of(vectors, n_props=24):
    """A census whose inhabited keys are exactly `vectors`."""
    return VectorCensus(5, False, {v: 1 for v in vectors})


class TestImplicant:
    def test_level_is_mask_popcount(self):
        assert Implicant(0b1011, 0b0011).level == 3

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Implicant(0b01, 0b10)

    def test_width_bound(self):
        with pytest.raises(ValueError):
            Implicant(1 << 24, 0)

    def test_literals_ascend(self):
        P = PropertyId
        mask = (1 << P.Univ.value) | (1 << P.Connex.value) | (1 << P.SemiOrd2.value)
        value = (1 << P.Univ.value) | (1 << P.SemiOrd2.value)
        imp = Implicant(mask, value)
        assert [(p.name, pos) for p, pos in imp.literals()] == [
            ("Univ", True), ("Connex", False), ("SemiOrd2", True)]

    def test_covers(self):
        imp = Implicant(0b11, 0b01)
        assert imp.covers(0b101)
        assert not imp.covers(0b111)


class TestLawText:
    def test_format_polarity_is_the_implicant(self):
        # the text names the impossible combination, not the clause
        P = PropertyId
        imp = Implicant((1 << P.ASym.value) | (1 << P.Irrefl.value),
                        1 << P.Irrefl.value)
        assert format_law(imp) == "~ASym Irrefl"

    def test_line_number_padding(self):
        law = Law(7, Implicant(0b11, 0b11))
        assert law_line(law) == "007: Empty Univ"

    def test_parse_round_trip(self):
        for text in ("Empty Univ", "~LfEucl Sym Trans", "CoRefl ~QuasiRefl"):
            assert format_law(parse_law_text(text)) == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_law_text("Empty Bogus")
        with pytest.raises(ValueError):
            parse_law_text("")
        for text in ("Empty ~Empty", "~Empty Empty", "Sym Trans Sym"):
            with pytest.raises(ValueError, match="named twice"):
                parse_law_text(text)


class TestMineSynthetic:
    def test_three_variables_single_off(self):
        # off = {a=1,b=0,c=0}; a rectangle is prime iff it avoids that point
        census = census_of([0b001], n_props=3)
        result = mine(census, max_level=3, n_props=3)
        texts = [law.text for law in result.laws]
        assert texts == ["~Empty", "Univ", "CoRefl"]
        assert all(law.level == 1 for law in result.laws)

    def test_every_vector_inhabited_yields_nothing(self):
        census = census_of(range(8), n_props=3)
        result = mine(census, max_level=3, n_props=3)
        assert result.laws == []
        assert result.level_stats[0].on_at_start == 0

    def test_two_offs_leave_a_level_two_hole(self):
        # off = {000, 111}: no single literal avoids both.  The four
        # Empty-anchored pairs are prime; by the time the scan reaches the
        # Univ/CoRefl pairs, their rectangles are fully covered by the
        # earlier same-level marks, so they are absorbed as don't-care.
        census = census_of([0b000, 0b111], n_props=3)
        result = mine(census, max_level=3, n_props=3)
        level1 = [l for l in result.laws if l.level == 1]
        level2 = [l for l in result.laws if l.level == 2]
        assert not level1
        assert [l.text for l in level2] == [
            "Empty ~Univ", "~Empty Univ", "Empty ~CoRefl", "~Empty CoRefl"]

    def test_sequence_numbers_start_at_one(self):
        census = census_of([0b001], n_props=3)
        result = mine(census, max_level=3, n_props=3)
        assert [l.seq for l in result.laws] == [1, 2, 3]

    def test_mined_rectangles_avoid_off_and_parents_hit(self):
        rng = np.random.default_rng(5)
        offs = sorted(set(rng.integers(0, 1 << 6, size=17).tolist()))
        census = census_of(offs, n_props=6)
        result = mine(census, max_level=6, n_props=6)
        off_arr = np.array(offs, dtype=np.uint32)
        assert result.laws  # the instance is nontrivial
        for law in result.laws:
            imp = law.implicant
            assert not np.any((off_arr & imp.mask) == imp.value)
            for bit in range(6):
                if not imp.mask >> bit & 1:
                    continue
                parent_mask = imp.mask & ~(1 << bit)
                parent_value = imp.value & parent_mask
                assert np.any((off_arr & parent_mask) == parent_value), law

    def test_dont_care_absorption(self):
        # off = {110, 111}: both offs have Univ=1 and CoRefl=1, so "~Univ"
        # and "~CoRefl" are prime at level 1 and between them absorb every
        # on-vector; the scan stops once a level opens with nothing left
        census = census_of([0b110, 0b111], n_props=3)
        result = mine(census, max_level=3, n_props=3)
        assert [l.text for l in result.laws] == ["~Univ", "~CoRefl"]
        stats = {s.level: s for s in result.level_stats}
        assert stats[1].on_at_start == 6
        assert stats[2].on_at_start == 0

    def test_level_cap_respected(self):
        census = census_of([0b000, 0b111], n_props=3)
        result = mine(census, max_level=1, n_props=3)
        assert result.laws == []
        assert result.max_level == 1


class TestReferenceMiner:
    def test_matches_sequential_definition(self, monkeypatch):
        # each level draws its candidates from the fewer of its masks and
        # its on vectors; count the levels each source serves
        served = {"masks": 0, "vectors": 0}
        for name, source in (("masks", "_mask_candidates"),
                             ("vectors", "_vector_candidates")):
            def counted(*args, _name=name, _real=getattr(mining, source)):
                served[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mining, source, counted)

        # the on-set packs vectors 64 to a word: a law's literals below
        # bit 6 select bits inside each word, those above select words
        split = {"in-word": 0, "words": 0, "both": 0}
        widths = {"< 6": 0, "= 6": 0, "> 6": 0}

        rng = random.Random(41)
        for n_props in range(1, 11):
            space = 1 << n_props
            for density in (0.05, 0.3, 0.7, 0.95):
                off = [u for u in range(space) if rng.random() < density]
                for max_level in (n_props, max(1, n_props // 2)):
                    result = mine(census_of(off), max_level, n_props)
                    laws, stats = naive.mine(off, n_props, max_level)
                    case = (n_props, density, max_level)
                    assert [(l.seq, l.implicant.mask, l.implicant.value)
                            for l in result.laws] == laws, case
                    assert [(s.level, s.on_at_start, s.off_count,
                             s.dontcare_at_start)
                            for s in result.level_stats] == stats, case
                    for law in result.laws:
                        low, high = law.implicant.mask & 63, law.implicant.mask >> 6
                        split["both" if low and high else
                              "in-word" if low else "words"] += 1
                        widths["< 6" if n_props < 6 else
                               "= 6" if n_props == 6 else "> 6"] += 1
        assert served["masks"] > 0 and served["vectors"] > 0, served
        assert all(split.values()), split
        assert all(widths.values()), widths


class TestMineValidation:
    def test_rejects_vectors_beyond_width(self):
        with pytest.raises(ValueError):
            mine(census_of([0b1000], n_props=3), n_props=3)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            mine(census_of([1], n_props=3), max_level=0, n_props=3)


class TestCsv:
    def round_trip(self, laws):
        buf = io.StringIO()
        laws_to_csv(laws, buf)
        buf.seek(0)
        return laws_from_csv(buf)

    def test_round_trip(self):
        laws = [Law(1, Implicant(0b11, 0b11)),
                Law(2, Implicant(0b101, 0b001))]
        assert self.round_trip(laws) == laws

    def test_csv_is_newline_terminated_rows(self):
        buf = io.StringIO()
        laws_to_csv([Law(1, Implicant(0b11, 0b11))], buf)
        assert buf.getvalue() == (
            "seq,level,mask_hex,value_hex,law_text\n"
            "001,2,000003,000003,Empty Univ\n")

    def test_reader_validates_text_against_mask(self):
        buf = io.StringIO(
            "seq,level,mask_hex,value_hex,law_text\n"
            "001,2,000003,000003,Empty ~Univ\n")
        with pytest.raises(ValueError):
            laws_from_csv(buf)

    def test_reader_validates_level(self):
        buf = io.StringIO(
            "seq,level,mask_hex,value_hex,law_text\n"
            "001,3,000003,000003,Empty Univ\n")
        with pytest.raises(ValueError):
            laws_from_csv(buf)

    def test_reader_rejects_alien_header(self):
        with pytest.raises(ValueError):
            laws_from_csv(io.StringIO("a,b\n1,2\n"))
