"""Tests for deletion policies and score packing (Figure 5, Eq. 2)."""

import pytest

from repro.policies import (
    DEFAULT_LAYOUT,
    FREQUENCY_LAYOUT,
    DefaultPolicy,
    FrequencyPolicy,
    clause_frequency,
    get_policy,
    negated,
    pack_fields,
    policy_names,
)
from repro.policies.registry import LABEL_TO_POLICY
from repro.policies.score import FREQUENCY_FIRST_LAYOUT, ScoreLayout, clamp
from repro.solver.arena import ClauseArena


def arena_clause(lits, glue=0):
    """A learned clause as policies see it: an arena view."""
    arena = ClauseArena()
    return arena.view(arena.add_learned(list(lits), glue))


def make_clause(num_lits, glue):
    return arena_clause([2 * (i + 1) for i in range(num_lits)], glue=glue)


class TestScorePacking:
    def test_negated_inverts_within_field(self):
        assert negated(0, 8) == 255
        assert negated(255, 8) == 0
        assert negated(1, 8) == 254

    def test_negated_saturates(self):
        assert negated(10_000, 8) == 0

    def test_negated_rejects_negative(self):
        with pytest.raises(ValueError):
            negated(-1, 8)

    def test_clamp(self):
        assert clamp(300, 8) == 255
        assert clamp(5, 8) == 5

    def test_pack_fields_msb_first(self):
        assert pack_fields([(1, 8), (2, 8)]) == (1 << 8) | 2

    def test_pack_rejects_overflow_value(self):
        with pytest.raises(ValueError):
            pack_fields([(256, 8)])

    def test_pack_rejects_over_64_bits(self):
        with pytest.raises(ValueError):
            pack_fields([(0, 40), (0, 40)])

    def test_layout_pack_unpack_round_trip(self):
        score = FREQUENCY_LAYOUT.pack(neg_glue=7, neg_size=9, frequency=3)
        assert FREQUENCY_LAYOUT.unpack(score) == {
            "neg_glue": 7,
            "neg_size": 9,
            "frequency": 3,
        }

    def test_layout_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            FREQUENCY_LAYOUT.pack(neg_glue=1, neg_size=2)

    def test_layout_widths_match_figure5(self):
        assert dict(DEFAULT_LAYOUT.fields) == {"neg_glue": 32, "neg_size": 32}
        assert dict(FREQUENCY_LAYOUT.fields) == {
            "neg_glue": 20,
            "neg_size": 20,
            "frequency": 24,
        }
        assert DEFAULT_LAYOUT.total_bits == 64
        assert FREQUENCY_LAYOUT.total_bits == 64


class TestDefaultPolicy:
    def test_lower_glue_scores_higher(self):
        policy = DefaultPolicy()
        low = make_clause(5, glue=3)
        high = make_clause(5, glue=7)
        assert policy.score(low, [], 0) > policy.score(high, [], 0)

    def test_size_breaks_glue_ties(self):
        policy = DefaultPolicy()
        small = make_clause(3, glue=4)
        large = make_clause(9, glue=4)
        assert policy.score(small, [], 0) > policy.score(large, [], 0)

    def test_glue_dominates_size(self):
        policy = DefaultPolicy()
        low_glue_huge = make_clause(50, glue=3)
        high_glue_tiny = make_clause(3, glue=4)
        assert policy.score(low_glue_huge, [], 0) > policy.score(high_glue_tiny, [], 0)


class TestClauseFrequency:
    def test_counts_hot_variables(self):
        clause = arena_clause([2, 4, 6])  # vars 1, 2, 3
        freq = [0, 100, 90, 10]
        assert clause_frequency(clause, freq, 100, alpha=0.8) == 2

    def test_zero_max_frequency(self):
        clause = arena_clause([2, 4])
        assert clause_frequency(clause, [0, 0, 0], 0) == 0

    def test_strict_inequality_at_threshold(self):
        clause = arena_clause([2])
        # f_v == alpha * f_max exactly -> not counted (Eq. 2 is strict).
        assert clause_frequency(clause, [0, 80], 100, alpha=0.8) == 0

    def test_alpha_extremes(self):
        clause = arena_clause([2, 4])
        freq = [0, 1, 100]
        assert clause_frequency(clause, freq, 100, alpha=0.0) == 2
        assert clause_frequency(clause, freq, 100, alpha=1.0) == 0


class TestFrequencyPolicy:
    def test_glue_still_dominates(self):
        policy = FrequencyPolicy()
        hot_bad_glue = make_clause(3, glue=8)
        cold_good_glue = make_clause(3, glue=3)
        freq = [0] + [100] * 10
        assert policy.score(cold_good_glue, freq, 100) > policy.score(
            hot_bad_glue, freq, 100
        )

    def test_frequency_breaks_full_ties(self):
        policy = FrequencyPolicy()
        hot = arena_clause([2, 4, 6], glue=4)
        cold = arena_clause([8, 10, 12], glue=4)
        freq = [0, 100, 100, 100, 1, 1, 1]
        assert policy.score(hot, freq, 100) > policy.score(cold, freq, 100)

    def test_score_caches_frequency_on_clause(self):
        policy = FrequencyPolicy()
        clause = make_clause(3, glue=4)
        freq = [0, 100, 100, 1]
        policy.score(clause, freq, 100)
        assert clause.frequency == 2

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            FrequencyPolicy(alpha=1.5)

    def test_alternative_layout_reorders(self):
        first = FrequencyPolicy(layout=FREQUENCY_FIRST_LAYOUT)
        hot_bad_glue = arena_clause([2, 4, 6], glue=9)
        cold_good_glue = arena_clause([8, 10, 12], glue=3)
        freq = [0, 100, 100, 100, 0, 0, 0]
        # With frequency as the most significant field the hot clause wins.
        assert first.score(hot_bad_glue, freq, 100) > first.score(
            cold_good_glue, freq, 100
        )

    def test_begin_round_sets_threshold(self):
        policy = FrequencyPolicy(alpha=0.5)
        policy.begin_round([0, 10], 10)
        assert policy._threshold == pytest.approx(5.0)


class TestRegistry:
    def test_names(self):
        assert policy_names() == ["default", "frequency"]

    def test_get_policy(self):
        assert isinstance(get_policy("default"), DefaultPolicy)
        assert isinstance(get_policy("frequency"), FrequencyPolicy)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown policy"):
            get_policy("nope")

    def test_label_mapping_matches_paper(self):
        # Sec 5.1: label 1 <=> new (frequency) policy wins.
        assert LABEL_TO_POLICY == {0: "default", 1: "frequency"}
        assert get_policy(LABEL_TO_POLICY[1]).name == "frequency"
