import numpy as np
import pytest

from masklog.corpus import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    MAX_COUNT,
    dedupe,
    load_labeled,
    split_corpus,
    synthesize,
    write_labeled,
    write_lines,
)
from masklog.errors import TooFewLogs
from masklog.normalize import CleanLog, RawLog, clean_lines, normalize
from masklog.vocab import build_vocab


class TestDedupe:
    def test_keeps_first_occurrence_with_counts(self):
        logs = [CleanLog("a b", ("f", 0)), CleanLog("a b", ("f", 1)), CleanLog("c", ("f", 2))]
        unique, counts = dedupe(logs)
        assert [u.text for u in unique] == ["a b", "c"]
        assert unique[0].raw_ref == ("f", 0)
        assert counts == {"a b": 2, "c": 1}

    def test_already_unique_unchanged(self):
        logs = [CleanLog("a"), CleanLog("b")]
        unique, counts = dedupe(logs)
        assert [u.text for u in unique] == ["a", "b"]
        assert set(counts.values()) == {1}

    def test_idempotent(self):
        logs = [CleanLog(t) for t in ["x", "x", "y", "z", "y"]]
        once, _ = dedupe(logs)
        twice, counts = dedupe(once)
        assert [u.text for u in twice] == [u.text for u in once]
        assert set(counts.values()) == {1}

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        texts = [f"t{int(i)}" for i in rng.integers(0, 20, 500)]
        _, counts = dedupe([CleanLog(t) for t in texts])
        from collections import Counter

        assert counts == dict(Counter(texts))


class TestSplit:
    def _normals(self, n):
        return [CleanLog(f"log text {chr(97 + i % 26)} {i}") for i in range(n)]

    def test_70_15_15_sizes(self):
        sp = split_corpus(self._normals(100), [], seed=0)
        assert (len(sp.train), len(sp.validation)) == (70, 15)
        assert sum(1 for _, lab in sp.test if lab == LABEL_NORMAL) == 15

    def test_sizes_within_one_of_ratio(self):
        for n in (10, 37, 99, 250):
            sp = split_corpus(self._normals(n), [], seed=3)
            n_test = sum(1 for _, lab in sp.test if lab == LABEL_NORMAL)
            assert abs(len(sp.train) - 0.70 * n) <= 1
            assert abs(len(sp.validation) - 0.15 * n) <= 1
            assert abs(n_test - 0.15 * n) <= 1
            assert len(sp.train) + len(sp.validation) + n_test == n

    def test_deterministic_given_seed(self):
        normals = self._normals(60)
        a = split_corpus(normals, [], seed=9)
        b = split_corpus(normals, [], seed=9)
        assert [x.text for x in a.train] == [x.text for x in b.train]
        assert [x.text for x in a.validation] == [x.text for x in b.validation]

    def test_partitions_disjoint(self):
        sp = split_corpus(self._normals(80), [CleanLog("weird anomaly")], seed=2)
        train = {x.text for x in sp.train}
        val = {x.text for x in sp.validation}
        test = {x.text for x, _ in sp.test}
        assert not train & val
        assert not train & test
        assert not val & test

    def test_anomalies_only_in_test(self):
        anomalies = [CleanLog("bad thing happened")]
        sp = split_corpus(self._normals(20), anomalies, seed=2)
        assert all(lab == LABEL_NORMAL for _, lab in sp.test[:-1])
        assert sp.test[-1][1] == LABEL_ANOMALOUS
        assert all("bad thing" not in x.text for x in sp.train + sp.validation)

    def test_too_few_logs(self):
        with pytest.raises(TooFewLogs):
            split_corpus(self._normals(9), [], seed=0)


class TestSynthesize:
    def test_label_counts(self):
        corp = synthesize(10, 300, 40, seed=1)
        assert corp.labels.count(LABEL_NORMAL) == 300
        assert corp.labels.count(LABEL_ANOMALOUS) == 40
        assert len(corp.lines) == 340

    def test_deterministic(self):
        a = synthesize(10, 100, 10, seed=5)
        b = synthesize(10, 100, 10, seed=5)
        assert a.lines == b.lines and a.labels == b.labels

    def test_seed_changes_output(self):
        assert synthesize(10, 50, 5, seed=1).lines != synthesize(10, 50, 5, seed=2).lines

    def test_anomaly_texts_never_collide_with_normals(self):
        corp = synthesize(20, 800, 60, seed=3)
        normal_clean = {
            normalize(RawLog(line)).text
            for line, lab in zip(corp.lines, corp.labels)
            if lab == LABEL_NORMAL
        }
        for line, lab in zip(corp.lines, corp.labels):
            if lab == LABEL_ANOMALOUS:
                assert normalize(RawLog(line)).text not in normal_clean

    def test_anomaly_vocabulary_mostly_novel(self):
        corp = synthesize(50, 3000, 150, seed=7)
        cleaned, _ = clean_lines(corp.lines)
        norm_vocab = {t for c, lab in zip(cleaned, corp.labels) if lab == LABEL_NORMAL
                      for t in c.text.split()}
        anom_vocab = {t for c, lab in zip(cleaned, corp.labels) if lab == LABEL_ANOMALOUS
                      for t in c.text.split()}
        assert len(anom_vocab & norm_vocab) / len(anom_vocab) < 0.5

    def test_contains_in_vocabulary_anomalies(self):
        corp = synthesize(30, 1500, 100, seed=4)
        cleaned, _ = clean_lines(corp.lines)
        norm_vocab = {t for c, lab in zip(cleaned, corp.labels) if lab == LABEL_NORMAL
                      for t in c.text.split()}
        in_vocab = [
            c for c, lab in zip(cleaned, corp.labels)
            if lab == LABEL_ANOMALOUS and all(t in norm_vocab for t in c.text.split())
        ]
        assert len(in_vocab) >= 10

    def test_oov_baseline_cannot_reach_perfect_f1(self):
        """Flagging any log with a train-unseen token must not ace the fixture."""
        corp = synthesize(30, 2000, 100, seed=6)
        cleaned, _ = clean_lines(corp.lines)
        normals = [c for c, lab in zip(cleaned, corp.labels) if lab == LABEL_NORMAL]
        anomalies = [c for c, lab in zip(cleaned, corp.labels) if lab == LABEL_ANOMALOUS]
        unique, _ = dedupe(normals)
        sp = split_corpus(unique, anomalies, seed=1)
        train_vocab = {t for c in sp.train for t in c.text.split()}
        tp = fp = fn = 0
        for log, lab in sp.test:
            flagged = any(t not in train_vocab for t in log.text.split())
            if lab == LABEL_ANOMALOUS:
                tp, fn = tp + int(flagged), fn + int(not flagged)
            else:
                fp += int(flagged)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert f1 < 1.0
        assert fn > 0  # some anomalies are expressible entirely in seen vocabulary

    def test_vocabulary_coverage_on_heldout_slice(self):
        # large template inventory, frequency cutoff 2: held-out coverage >= 0.95
        corp = synthesize(1000, 3000, 2, seed=8)
        cleaned, _ = clean_lines(corp.lines)
        normals = [c for c, lab in zip(cleaned, corp.labels) if lab == LABEL_NORMAL]
        cut = int(0.7 * len(normals))
        vocab = build_vocab(normals[:cut], min_freq=2, max_size=4096)
        total = unk = 0
        for c in normals[cut:]:
            for tok in c.text.split():
                total += 1
                unk += tok not in vocab.token_to_id
        assert 1.0 - unk / total >= 0.95

    def test_requires_two_templates(self):
        with pytest.raises(ValueError, match="^templates must be >= 2"):
            synthesize(1, 10, 1, seed=0)

    @pytest.mark.parametrize("name", ["templates", "normal", "anomalies"])
    def test_refuses_a_count_above_the_bound_before_any_work(self, name):
        counts = {"templates": 10, "normal": 10, "anomalies": 1, name: MAX_COUNT + 1}
        with pytest.raises(ValueError, match=f"^{name} must be <= {MAX_COUNT}, not {MAX_COUNT + 1}$"):
            synthesize(counts["templates"], counts["normal"], counts["anomalies"], seed=0)


class TestLabeledFiles:
    def test_inline_round_trip(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        write_labeled(path, ["a b", "c d"], [LABEL_NORMAL, LABEL_ANOMALOUS])
        texts, labels = load_labeled(path)
        assert texts == ["a b", "c d"]
        assert labels == [LABEL_NORMAL, LABEL_ANOMALOUS]

    def test_parallel_label_file(self, tmp_path):
        logs, labels = tmp_path / "x.log", tmp_path / "x.labels"
        write_lines(logs, ["a", "b", "c"])
        write_lines(labels, ["0", "1", "0"])
        texts, got = load_labeled(logs, labels)
        assert texts == ["a", "b", "c"]
        assert got == [LABEL_NORMAL, LABEL_ANOMALOUS, LABEL_NORMAL]

    def test_parallel_length_mismatch(self, tmp_path):
        logs, labels = tmp_path / "x.log", tmp_path / "x.labels"
        write_lines(logs, ["a", "b"])
        write_lines(labels, ["0"])
        with pytest.raises(ValueError):
            load_labeled(logs, labels)
