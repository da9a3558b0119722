"""Tests for metrics, the t-test, and embedding extraction."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.eval import accuracy, extract_embeddings, two_sided_t_test
from repro.eval.significance import t_two_sided_p
from repro.models import resnet_small

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: ``(t, df, p)`` with ``p = 2 * scipy.stats.t.sf(t, df)`` from scipy 1.17.1,
#: computed when scipy was still a dependency.  df 4.0046... is the
#: Welch-Satterthwaite dof of the Welch pin below; t=1.6 at df 500 and 777
#: is where a plain ``lgamma`` difference drifts past 1e-12.
T_GRID = [
    (0.01, 1, 0.993634014470186),
    (0.5, 1, 0.7048327646991335),
    (1.0, 1, 0.5000000000000001),
    (2.0, 1, 0.2951672353008665),
    (3.5, 1, 0.17717106556580953),
    (8.0, 1, 0.07916684832113109),
    (25.0, 1, 0.02545122269598366),
    (0.01, 2, 0.992929108958201),
    (0.5, 2, 0.6666666666666667),
    (1.0, 2, 0.4226497308103742),
    (2.0, 2, 0.18350341907227397),
    (3.5, 2, 0.07282735005446933),
    (8.0, 2, 0.01526807216533814),
    (25.0, 2, 0.001596170211410334),
    (0.01, 3, 0.992649111412852),
    (0.5, 3, 0.651447964848151),
    (1.0, 3, 0.3910022189557705),
    (2.0, 3, 0.13932596855884305),
    (3.5, 3, 0.039481037619282774),
    (8.0, 3, 0.004076577587785466),
    (25.0, 3, 0.00014033138995754856),
    (0.01, 4.004618937644341, 0.9924996307140989),
    (0.5, 4.004618937644341, 0.6433012893990333),
    (1.0, 4.004618937644341, 0.3738402682694039),
    (2.0, 4.004618937644341, 0.11603520893209776),
    (3.5, 4.004618937644341, 0.024849470193641112),
    (8.0, 4.004618937644341, 0.0013174978136530919),
    (25.0, 4.004618937644341, 1.5047985250842442e-05),
    (0.01, 7.77, 0.9922732600338376),
    (0.5, 7.77, 0.6309249107895017),
    (1.0, 7.77, 0.34743046335135486),
    (2.0, 7.77, 0.08157313852244448),
    (3.5, 7.77, 0.00846015090045528),
    (8.0, 7.77, 5.144630731313524e-05),
    (25.0, 7.77, 1.0504395579483914e-08),
    (0.01, 12.5, 0.992179121306916),
    (0.5, 12.5, 0.6257608922198348),
    (1.0, 12.5, 0.3362760549640746),
    (2.0, 12.5, 0.06771094324971515),
    (3.5, 12.5, 0.00413514104576128),
    (8.0, 12.5, 2.8884388303708448e-06),
    (25.0, 12.5, 4.7445778272397465e-12),
    (0.01, 30, 0.9920874925731777),
    (0.5, 30, 0.6207230048851272),
    (1.0, 30, 0.3253086154260302),
    (2.0, 30, 0.054625044962983094),
    (3.5, 30, 0.0014768074376442532),
    (8.0, 30, 6.265822475700759e-09),
    (25.0, 30, 1.2091822381287035e-21),
    (0.01, 101.3, 0.9920409548846802),
    (0.5, 101.3, 0.6181594906533606),
    (1.0, 101.3, 0.31969325792072),
    (2.0, 101.3, 0.048177225206234166),
    (3.5, 101.3, 0.0006930864547631815),
    (8.0, 101.3, 2.1197595115227588e-12),
    (25.0, 101.3, 3.968199633440504e-45),
    (1.6, 500, 0.1102302198907127),
    (1.6, 777, 0.11000508068255753),
    (0.01, 1000, 0.9920232819321873),
    (0.5, 1000, 0.6171850808338747),
    (1.0, 1000, 0.31755241808467255),
    (2.0, 1000, 0.04577034649325166),
    (3.5, 1000, 0.0004857743459678326),
    (8.0, 1000, 3.4266614823914978e-15),
    (25.0, 1000, 1.5203541383321418e-107),
]


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(EvaluationError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(EvaluationError):
            accuracy(np.array([]), np.array([]))


class TestTTest:
    def test_clear_difference_significant(self):
        result = two_sided_t_test([0.9, 0.91, 0.92], [0.5, 0.51, 0.52])
        assert result.significant
        assert result.p_value < 0.05
        assert result.statistic > 0

    def test_identical_samples_not_significant(self):
        result = two_sided_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert not result.significant
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_noisy_overlap_not_significant(self, rng):
        a = [0.5, 0.9, 0.4]
        b = [0.6, 0.5, 0.8]
        result = two_sided_t_test(a, b)
        assert not result.significant

    def test_constant_positive_difference_maximally_significant(self):
        result = two_sided_t_test([0.9, 0.8, 0.7], [0.5, 0.4, 0.3])
        assert result.significant
        assert result.p_value == 0.0
        assert result.statistic == math.inf

    def test_constant_negative_difference_significant_but_negative(self):
        result = two_sided_t_test([0.5, 0.4], [0.9, 0.8])
        assert result.significant
        assert result.p_value == 0.0
        assert result.statistic == -math.inf

    def test_unpaired_welch(self):
        result = two_sided_t_test(
            [0.9, 0.91, 0.92, 0.93], [0.5, 0.52], paired=False
        )
        assert result.significant

    def test_paired_requires_equal_counts(self):
        with pytest.raises(EvaluationError):
            two_sided_t_test([0.9, 0.91], [0.5], paired=True)

    def test_minimum_samples(self):
        with pytest.raises(EvaluationError):
            two_sided_t_test([0.9], [0.5])

    def test_paired_and_welch_values(self):
        candidate, baseline = [0.61, 0.64, 0.59, 0.66], [0.58, 0.60, 0.59, 0.61]
        paired = two_sided_t_test(candidate, baseline)
        welch = two_sided_t_test(candidate, baseline, paired=False)
        assert paired.statistic == pytest.approx(2.7774602993176547, rel=1e-12)
        assert paired.p_value == pytest.approx(0.06913686926442872, rel=1e-12)
        assert welch.statistic == pytest.approx(1.7822655773580138, rel=1e-12)
        assert welch.p_value == pytest.approx(0.1492069391477913, rel=1e-12)
        assert not paired.significant and not welch.significant

    def test_welch_both_variances_zero_equal_means_is_undefined(self):
        result = two_sided_t_test([0.5, 0.5, 0.5], [0.5, 0.5], paired=False)
        assert math.isnan(result.statistic) and math.isnan(result.p_value)
        assert not result.significant

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_welch_zero_variances_different_means_diverges(self, sign):
        result = two_sided_t_test(
            [0.5 + sign * 0.25] * 2, [0.5] * 4, paired=False
        )
        assert result.statistic == sign * math.inf
        assert result.p_value == 0.0
        assert result.significant


class TestTDistribution:
    """The numpy two-sided p-value against T_GRID and the closed forms."""

    @pytest.mark.parametrize("t, df, expected", T_GRID)
    def test_matches_reference_grid(self, t, df, expected):
        assert t_two_sided_p(t, df) == pytest.approx(expected, rel=1e-12, abs=0)
        assert t_two_sided_p(-t, df) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "t", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.3, 1.0, 3.0, 10.0, 100.0, 1e4]
    )
    def test_closed_forms_at_one_and_two_dof(self, t):
        s = math.sqrt(2.0 + t * t)
        assert t_two_sided_p(t, 1.0) == pytest.approx(
            2.0 / math.pi * math.atan2(1.0, t), rel=1e-13, abs=0
        )
        assert t_two_sided_p(t, 2.0) == pytest.approx(
            2.0 / (s * (s + t)), rel=1e-13, abs=0
        )

    def test_limits(self):
        assert t_two_sided_p(0.0, 5.0) == 1.0
        assert t_two_sided_p(math.inf, 5.0) == 0.0
        assert t_two_sided_p(-math.inf, 5.0) == 0.0
        assert math.isnan(t_two_sided_p(math.nan, 5.0))

    @pytest.mark.parametrize("backbone", ["resnet", "mixer"])
    def test_committed_table1_significance_recomputes(self, backbone):
        record = json.loads((RESULTS / f"table1_{backbone}.json").read_text())
        baselines = [m for m in record["accuracy"] if not m.startswith("meta")]
        assert record["significance"]
        for method, by_k in record["significance"].items():
            for k, p_value in by_k.items():
                best = max(baselines, key=lambda m: record["accuracy"][m][k])
                result = two_sided_t_test(
                    record["per_seed"][method][k], record["per_seed"][best][k]
                )
                assert result.p_value == pytest.approx(p_value, rel=1e-12, abs=0)


class TestExtractEmbeddings:
    def test_shape_and_batching(self, rng):
        model = resnet_small(4, rng)
        images = rng.normal(size=(10, 3, 16, 16)).astype(np.float32)
        emb = extract_embeddings(model, images, batch_size=3)
        assert emb.shape == (10, model.embedding_dim)

    def test_batch_size_does_not_change_result(self, rng):
        model = resnet_small(4, rng)
        images = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
        a = extract_embeddings(model, images, batch_size=2)
        b = extract_embeddings(model, images, batch_size=8)
        assert np.allclose(a, b, atol=1e-5)

    def test_requires_features_method(self, rng):
        from repro.nn import Linear

        with pytest.raises(EvaluationError):
            extract_embeddings(Linear(3, 3, rng=rng), np.zeros((2, 3), np.float32))

    def test_restores_prior_train_eval_mode(self, rng):
        model = resnet_small(4, rng)
        images = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        model.train()
        extract_embeddings(model, images)
        assert model.training
        model.eval()
        extract_embeddings(model, images)
        assert not model.training  # must NOT be forced back to train mode
