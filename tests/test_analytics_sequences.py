"""Tests for the template-sequence transition model."""

import random

import pytest

pytest.importorskip("numpy")  # repro.analytics is numpy's

from repro.analytics.sequences import TransitionModel


def workflow_stream(repeats: int, noise: float = 0.0, seed: int = 0):
    """A rigid 4-step workflow (0 -> 1 -> 2 -> 3) with optional noise."""
    rng = random.Random(seed)
    tags = []
    for _ in range(repeats):
        for step in (0, 1, 2, 3):
            if noise and rng.random() < noise:
                tags.append(rng.randrange(4))
            else:
                tags.append(step)
    return tags


class TestFitAndProbabilities:
    def test_learned_transitions_dominate(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(100))
        assert model.transition_prob(0, 1) > 0.9
        assert model.transition_prob(0, 2) < 0.05

    def test_unseen_transitions_get_smoothed_mass(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(100))
        assert model.transition_prob(2, 0) > 0.0

    def test_unparsed_state_supported(self):
        model = TransitionModel(num_templates=2).fit([0, None, 1, None, 0])
        assert model.transition_prob(0, None) > 0.0
        assert model.transition_prob(None, 1) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionModel(num_templates=0)
        with pytest.raises(ValueError):
            TransitionModel(num_templates=2, smoothing=0)
        with pytest.raises(ValueError):
            TransitionModel(num_templates=2).fit([0])
        model = TransitionModel(num_templates=2).fit([0, 1])
        with pytest.raises(ValueError):
            model.transition_prob(5, 0)

    def test_unfitted_raises(self):
        model = TransitionModel(num_templates=2)
        with pytest.raises(RuntimeError):
            model.transition_prob(0, 1)
        with pytest.raises(RuntimeError):
            model.most_likely_next(0)


class TestSurprise:
    def test_normal_stream_scores_low(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(200))
        normal = model.surprise(workflow_stream(20, seed=7))
        assert normal < 1.0  # near-deterministic workflow

    def test_shuffled_stream_scores_high(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(200))
        rng = random.Random(3)
        shuffled = workflow_stream(20)
        rng.shuffle(shuffled)
        assert model.surprise(shuffled) > 2 * model.surprise(workflow_stream(20))

    def test_window_scores_localise_the_break(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(200))
        stream = workflow_stream(30)
        # corrupt one region: reverse the workflow order there
        stream[40:60] = stream[40:60][::-1]
        scores = model.score_windows(stream, window=20)
        worst = max(scores, key=lambda s: s.surprise)
        assert 20 <= worst.start <= 60

    def test_window_validation(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(10))
        with pytest.raises(ValueError):
            model.score_windows([0, 1, 2], window=1)
        with pytest.raises(ValueError):
            model.surprise([0])


class TestWorkflowMining:
    def test_most_likely_next_recovers_workflow(self):
        model = TransitionModel(num_templates=4).fit(workflow_stream(100))
        assert model.most_likely_next(0, top=1)[0][0] == 1
        assert model.most_likely_next(1, top=1)[0][0] == 2
        assert model.most_likely_next(3, top=1)[0][0] == 0  # wraps around

    def test_noisy_workflow_still_recovered(self):
        model = TransitionModel(num_templates=4).fit(
            workflow_stream(300, noise=0.15, seed=11)
        )
        assert model.most_likely_next(0, top=1)[0][0] == 1
