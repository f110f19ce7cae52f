import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixdiff import (
    CLAMP,
    DYNAMIC,
    EXACT,
    Denoiser,
    LogitTable,
    OracleDenoiser,
    SamplerConfig,
    SelfCorrectConfig,
    ToyDistribution,
    Vocab,
    ancestral_sample_batch,
    corpus_nelbo,
    kl_divergence,
    make_schedule,
    self_correct_batch,
    sequence_nelbo,
    table_train,
)
from mixdiff.cli import read_corpus
from mixdiff.denoiser import (
    TRAIN_BLOCK,
    _distinct_rows,
    masked_softmax,
    posterior_kl_to_oracle,
)
from mixdiff.elbo import loss_and_grad, noise_sequence, stratified_times
from mixdiff.errors import CorpusFormatError, DegenerateEvidenceError, TimeRangeError
from mixdiff.schedule import MixingSchedule


def test_toy_distribution_validation(vocab3):
    with pytest.raises(ValueError):
        ToyDistribution(vocab3, 2, (((0, 0), 0.5), ((1, 1), 0.6)))
    with pytest.raises(ValueError):
        ToyDistribution(vocab3, 2, (((0, 2), 1.0),))  # mask in outcome
    with pytest.raises(ValueError):
        ToyDistribution(vocab3, 2, (((0, 0, 0), 1.0),))  # wrong length
    with pytest.raises(ValueError):
        ToyDistribution(vocab3, 2, (((0, 0), 1.5), ((1, 1), -0.5)))


def test_toy_distribution_queries(two_outcome):
    assert two_outcome.prob_of((0, 0)) == 0.5
    assert two_outcome.prob_of((0, 1)) == 0.0
    assert two_outcome.entropy() == pytest.approx(np.log(2))
    rng = np.random.default_rng(0)
    draws = two_outcome.sample(rng, 2000)
    freq = np.mean([tuple(d) == (0, 0) for d in draws])
    assert abs(freq - 0.5) < 0.05


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=9).filter(any),
    count=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[0, 3, 0, 1, 0], count=0, seed=0)
def test_sample_is_generator_choice(weights, count, seed):
    """sample draws what Generator.choice draws, zero-probability outcomes and
    no draw at all included, and leaves the generator where choice leaves it."""
    outcomes = [(i // 3, i % 3) for i in range(len(weights))]
    probs = [w / sum(weights) for w in weights]
    dist = ToyDistribution(Vocab(4, 3), 2, tuple(zip(outcomes, probs)))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = dist.sample(ours, count)
    assert drawn.shape == (count, 2)
    assert drawn.tolist() == dist.sequences[ref.choice(len(weights), count, p=dist.probs)].tolist()
    assert ours.random() == ref.random()


def test_prob_of_lookup(vocab3):
    """prob_of is outcome_index's one-row view; it takes any integer type."""
    dist = ToyDistribution(vocab3, 2, (((0, 0), 0.2), ((1, 1), 0.8)))
    assert dist.prob_of((0, 0)) == 0.2
    assert dist.prob_of(np.array([1, 1])) == 0.8
    assert dist.prob_of([1, 0]) == 0.0


def test_outcome_index(vocab3):
    """Each row's index among the outcomes, K for a row outside the support,
    mask tokens and repeated rows included; any leading shape."""
    dist = ToyDistribution(vocab3, 2, (((1, 1), 0.5), ((0, 1), 0.25), ((0, 0), 0.25)))
    rows = [(0, 0), (1, 0), (1, 1), (2, 2), (0, 1), (0, 0)]
    assert dist.outcome_index(rows).tolist() == [2, 3, 0, 3, 1, 2]
    assert dist.outcome_index(np.array(rows, dtype=np.int32).reshape(2, 3, 2)).tolist() == [
        [2, 3, 0],
        [3, 1, 2],
    ]
    assert dist.outcome_index((0, 1)) == 1
    assert dist.outcome_index(np.empty((0, 2), dtype=np.int64)).shape == (0,)


def test_outcome_index_named_errors(vocab3):
    """A wrong width or an id outside [0, N) used to count as out of support."""
    dist = ToyDistribution(vocab3, 2, (((0, 0), 1.0),))
    with pytest.raises(ValueError, match="batch of length 3 for a distribution of length 2"):
        dist.outcome_index([(0, 0, 0)])
    with pytest.raises(ValueError, match=r"token id 3 outside \[0, 3\)"):
        dist.outcome_index([(0, 0), (0, 3)])
    with pytest.raises(ValueError, match=r"token id -1 outside \[0, 3\)"):
        dist.prob_of((-1, 0))


def test_toy_distribution_rejects_repeated_outcome(vocab3, tmp_path):
    """prob_of would read one listing of a repeated outcome while sampling and
    the oracle use both, so a repeated outcome is refused."""
    with pytest.raises(ValueError, match="listed twice"):
        ToyDistribution(vocab3, 2, (((0, 0), 0.2), ((1, 1), 0.5), ((0, 0), 0.3)))
    path = tmp_path / "twice.txt"
    path.write_text("3 2 2\n0.2 0 0\n0.5 1 1\n0.3 0 0\n")
    with pytest.raises(CorpusFormatError, match="listed twice"):
        ToyDistribution.load(str(path))


def test_toy_distribution_round_trip(two_outcome, tmp_path):
    path = tmp_path / "dist.txt"
    two_outcome.save(str(path))
    loaded = ToyDistribution.load(str(path))
    assert loaded == two_outcome


def test_toy_distribution_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(CorpusFormatError):
        ToyDistribution.load(str(path))
    path.write_text("3 two 2\n0.5 0 0\n")
    with pytest.raises(CorpusFormatError) as exc:
        ToyDistribution.load(str(path))
    assert exc.value.line == 1
    path.write_text("3 2 2\n0.5 0 0\n0.5 1 1 1\n")
    with pytest.raises(CorpusFormatError) as exc:
        ToyDistribution.load(str(path))
    assert exc.value.line == 3
    path.write_text("3 2 2\n\n0.5 0 0\n0.5 1 1 1\n")
    with pytest.raises(CorpusFormatError) as exc:
        ToyDistribution.load(str(path))
    assert exc.value.line == 4


def test_oracle_posterior_examples(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    oracle = OracleDenoiser(two_outcome, sched)
    # unmasked 0 pins the outcome
    pred = oracle.predict_batch(np.array([[2, 0]]), 0.5)[0]
    np.testing.assert_allclose(pred[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(pred[1], [1.0, 0.0, 0.0], atol=1e-12)
    # all-mask evidence is symmetric
    pred = oracle.predict_batch(np.array([[2, 2]]), 0.5)[0]
    np.testing.assert_allclose(pred[0], [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(pred[1], [0.5, 0.5, 0.0], atol=1e-12)


def test_oracle_noiseless_evidence(five_outcome):
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(five_outcome, sched)
    pred = oracle.predict_batch(np.array([[1, 2, 3]]), sched.eps_t)[0]
    for i, tok in enumerate((1, 2, 3)):
        assert pred[i].argmax() == tok
        assert pred[i][tok] > 0.999


def test_oracle_degenerate_evidence_mask_only(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    oracle = OracleDenoiser(two_outcome, sched)
    with pytest.raises(DegenerateEvidenceError):
        oracle.predict_batch(np.array([[0, 1]]), 0.5)[0]


def test_degenerate_evidence_names_its_first_row_and_time(two_outcome):
    """The error used to say only "noisy sequence has zero likelihood under
    every outcome", whichever row of the batch it was and at whatever time."""
    oracle = OracleDenoiser(two_outcome, make_schedule("mask", two_outcome.vocab))
    z = np.array([[0, 2], [1, 0], [0, 1]])
    msg = "noisy sequence [1, 0] at t = 0.25 has zero likelihood under every outcome"
    with pytest.raises(DegenerateEvidenceError, match=f"^{re.escape(msg)}$"):
        oracle.predict_batch(z, np.array([0.5, 0.25, 0.125]))


def test_oracle_normalized_under_hybrid(five_outcome):
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(five_outcome, sched)
    rng = np.random.default_rng(2)
    z = rng.integers(0, 5, size=(50, 3))
    preds = oracle.predict_batch(z, 0.5)
    np.testing.assert_allclose(preds.sum(axis=2), 1.0, atol=1e-9)
    assert np.all(preds[:, :, 4] == 0.0)


def test_masked_softmax():
    p = masked_softmax(np.zeros((2, 4)), 3)
    np.testing.assert_allclose(p, [[1 / 3] * 3 + [0.0]] * 2, atol=1e-12)


def test_logit_table_miss_is_uniform(vocab3):
    table = LogitTable(vocab3, 2)
    pred = table.predict_batch(np.array([[0, 1]]), 0.3)[0]
    np.testing.assert_allclose(pred, [[0.5, 0.5, 0.0]] * 2, atol=1e-12)


def test_logit_table_batch_of_other_length_is_named_error(vocab3):
    table = LogitTable(vocab3, 2)
    with pytest.raises(ValueError, match="batch of length 3 for a table of length 2"):
        table.predict_batch(np.zeros((4, 3), dtype=np.int64), 0.3)
    with pytest.raises(ValueError, match="batch of length 1 for a table of length 2"):
        table.logits_for(np.zeros((4, 1), dtype=np.int64), 0.3)


@pytest.mark.parametrize("token", [-1, 3, 7, 8])
def test_logit_table_rejects_tokens_outside_the_vocabulary(vocab3, token):
    """Tokens key the table as base-8 digits here (8 buckets); an id outside
    [0, 3) would alias another row's key, so it is a named error."""
    table = LogitTable(vocab3, 2, t_buckets=8)
    with pytest.raises(ValueError, match=rf"token id {token} outside \[0, 3\)"):
        table.predict_batch(np.array([[0, 1], [1, token]]), 0.3)
    assert not table.table


def test_oracle_batch_of_other_length_is_named_error(five_outcome):
    oracle = OracleDenoiser(five_outcome, make_schedule("hybrid", five_outcome.vocab, p_u=0.2))
    with pytest.raises(ValueError, match="batch of length 4 for an oracle of length 3"):
        oracle.predict_batch(np.zeros((2, 4), dtype=np.int64), 0.5)


@pytest.mark.xfail(
    strict=True,
    raises=DegenerateEvidenceError,
    reason="the product of 1000 per-token likelihoods underflows to 0 (ROADMAP item 2)",
)
def test_oracle_posterior_of_a_long_sequence():
    vocab = Vocab(5, 4)
    rng = np.random.default_rng(0)
    outcomes = tuple((tuple(rng.integers(0, 4, 1000).tolist()), 0.5) for _ in range(2))
    dist = ToyDistribution(vocab, 1000, outcomes)
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    z = noise_sequence(sched, dist.sequences[0], 0.3, np.random.default_rng(1))
    pred = OracleDenoiser(dist, sched).predict_batch(z[None], 0.3)
    assert np.all(np.isfinite(pred))
    np.testing.assert_allclose(pred.sum(axis=-1), 1.0)


def test_logit_table_buckets(vocab3):
    table = LogitTable(vocab3, 2, t_buckets=8, eps_t=1e-4)
    assert table.buckets(1e-4) == 0
    assert table.buckets(1 - 1e-4) == 7
    assert table.buckets(0.5) == 4


@given(
    t_buckets=st.integers(1, 100),
    eps_t=st.floats(1e-6, 0.49),
    fracs=st.lists(st.floats(0.0, 1.0), max_size=20),
)
def test_buckets_equal_bucket(t_buckets, eps_t, fracs):
    """The array bucket equals the scalar one at eps_t, at 1 - eps_t, on both
    sides of every bucket edge and at drawn times."""
    table = LogitTable(Vocab(3, 2), 2, t_buckets=t_buckets, eps_t=eps_t)
    edges = eps_t + (1.0 - 2.0 * eps_t) * np.arange(t_buckets + 1) / t_buckets
    times = np.concatenate([
        [eps_t, 1.0 - eps_t],
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0),
        eps_t + (1.0 - 2.0 * eps_t) * np.array(fracs),
    ])
    assert table.buckets(times).tolist() == [table.buckets(t) for t in times.tolist()]


def test_logit_table_round_trip(vocab3, tmp_path):
    """Entries inserted by a lookup and written through the logits array load
    back with the same keys and bits."""
    table = LogitTable(vocab3, 2)
    table.logits_for(np.array([[0, 2], [2, 2]]), np.array([0.7, 1e-4]), insert=True)
    table.logits[...] = np.random.default_rng(8).normal(size=(2, 2, 3))
    path = tmp_path / "table.txt"
    table.save(str(path))
    loaded = LogitTable.load(str(path))
    assert loaded.vocab == table.vocab
    assert loaded.t_buckets == table.t_buckets
    assert set(loaded.table) == {(0, (2, 2)), (5, (0, 2))}
    assert loaded.keys.tolist() == table.keys.tolist() == [[0, 2, 2], [5, 0, 2]]
    assert loaded.logits.tobytes() == table.logits.tobytes()
    for key in table.table:
        np.testing.assert_array_equal(loaded.table[key], table.table[key])


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([3, 5, 9]),
    length=st.sampled_from([1, 2, 3, 30]),
    t_buckets=st.integers(1, 9),
    calls=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 2**32 - 1)), max_size=6
    ),
)
@example(n=3, length=2, t_buckets=8, calls=[(True, 0, 0), (False, 5, 1), (True, 9, 2)])
def test_logit_table_equals_a_dict(n, length, t_buckets, calls):
    """Lookups and inserts against a plain dict of (bucket, tokens) -> logits:
    hits read their entry, misses zero logits or -1, inserts adopt zero
    logits; the keys stay sorted and distinct, predict_batch never grows the
    table, and the entries view refuses assignment. Rows come from a small
    pool at a few times, so calls hit each other's keys."""
    vocab = Vocab(n, n - 1)
    table, ref, zeros = LogitTable(vocab, length, t_buckets=t_buckets), {}, np.zeros((length, n))
    pool = np.random.default_rng(n * length).integers(0, n, (6, length))
    for insert, rows, seed in calls:
        rng = np.random.default_rng(seed)
        z = pool[rng.integers(0, len(pool), rows)]
        times = rng.choice([1e-4, 0.3, 0.31, 0.9], rows)
        keys = [(table.buckets(t), tuple(row)) for t, row in zip(times.tolist(), z.tolist())]
        before = table.keys.copy()
        pred = table.predict_batch(z, times)
        assert table.keys.tobytes() == before.tobytes()
        for b, key in enumerate(keys):
            expect = masked_softmax(ref.get(key, zeros), vocab.mask_id)
            assert pred[b].tobytes() == expect.tobytes()
        entries, inverse = table.logits_for(z, times, insert=insert)
        for key, entry in zip(keys, entries[inverse].tolist()):
            if key in ref or insert:
                assert table.keys[entry].tolist() == [key[0], *key[1]]
                assert table.logits[entry].tobytes() == ref.get(key, zeros).tobytes()
            else:
                assert entry == -1
        if insert:  # fresh logits for the batch's keys, in the table and the reference
            table.logits[entries] = rng.normal(size=(len(entries), length, n))
            ref.update((key, table.logits[e].copy()) for key, e in zip(keys, entries[inverse]))
        rows_now = [tuple(row) for row in table.keys.tolist()]
        assert rows_now == sorted(set(rows_now))
        assert set(table.table) == set(ref)
        for key, logits in ref.items():
            assert table.table[key].tobytes() == logits.tobytes()
    with pytest.raises(TypeError):
        table.table[(0, (0,) * length)] = np.ones((length, n))
    assert len(table.table) == len(ref)


@pytest.mark.parametrize("token", [-1, 5])
@pytest.mark.parametrize("kind", ["oracle", "table"])
def test_denoisers_reject_tokens_outside_the_vocabulary(five_outcome, kind, token):
    """An id outside [0, N) used to read -1 as the oracle's mask or end in an
    IndexError; both denoisers name it, the table keeping no entry."""
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    if kind == "oracle":
        denoiser = OracleDenoiser(five_outcome, sched)
    else:
        denoiser = LogitTable(five_outcome.vocab, 3)
    with pytest.raises(ValueError, match=rf"token id {token} outside \[0, 5\)"):
        denoiser.predict_batch(np.array([[0, 1, 2], [0, token, 2]]), 0.5)
    with pytest.raises(ValueError, match=rf"token id {token} outside \[0, 5\)"):
        denoiser.predict_batch(np.array([[0, token, 2]]), 0.5)
    assert kind == "oracle" or not denoiser.table


HEADER = "3 2 2 8 0.0001 0.5\n"
LOGITS = " 0.0 1.0 2.0 3.0 4.0 5.0\n"


@pytest.mark.parametrize(
    "body, line, named",
    [
        ("-1 0 0" + LOGITS, 2, r"time bucket -1 outside \[0, 8\)"),
        ("0 0 0" + LOGITS + "8 0 0" + LOGITS, 3, r"time bucket 8 outside \[0, 8\)"),
        ("9 0 0" + LOGITS, 2, r"time bucket 9 outside \[0, 8\)"),
        ("0 0 7" + LOGITS, 2, r"token id 7 outside \[0, 3\)"),
        ("0 -1 0" + LOGITS, 2, r"token id -1 outside \[0, 3\)"),
        ("3 0 1" + LOGITS + "0 0 0" + LOGITS + "3 0 1" + LOGITS, 4, r"key \[3, 0, 1\] is repeated"),
    ],
    ids=["bucket -1", "bucket 8", "bucket 9", "token 7", "token -1", "twice"],
)
def test_logit_table_load_refuses_keys_outside_the_table(tmp_path, body, line, named):
    """A key digit outside its range would alias another key, and a key listed
    twice used to keep its last copy: each is a data error on its line (the
    last line for a repeat)."""
    path = tmp_path / "table.txt"
    path.write_text(HEADER + body)
    with pytest.raises(CorpusFormatError, match=named) as exc:
        LogitTable.load(str(path))
    assert exc.value.line == line


@pytest.mark.parametrize("logit", ["nan", "inf", "-inf"])
def test_logit_table_load_refuses_non_finite_logits(tmp_path, logit):
    """A `nan` logit used to load, and predict_batch then returned NaN rows."""
    path = tmp_path / "table.txt"
    path.write_text(HEADER + "0 0 0" + LOGITS + f"3 0 1 0.0 1.0 2.0 {logit} 4.0 5.0\n")
    with pytest.raises(CorpusFormatError, match=f"logit {logit} is not finite") as exc:
        LogitTable.load(str(path))
    assert exc.value.line == 3


def test_logit_table_nan_time_is_named_error(vocab3):
    """A NaN time used to fall into bucket 0 through an invalid cast (a
    RuntimeWarning), so predict_batch answered for bucket 0; it is a
    TimeRangeError, as for the oracle. Finite times outside [eps, 1 - eps]
    still fall into the end buckets, and so do the infinite ones and those
    whose bucket index overflows int64, which used to end in bucket 0."""
    table = LogitTable(vocab3, 2)
    nan = float("nan")
    with pytest.raises(TimeRangeError, match="nan"):
        table.buckets(nan)
    with pytest.raises(TimeRangeError, match="nan"):
        table.buckets(np.array([0.3, nan]))
    with pytest.raises(TimeRangeError, match="nan"):
        table.predict_batch(np.array([[0, 1], [1, 1]]), np.array([0.5, nan]))
    with pytest.raises(TimeRangeError, match="nan"):
        table.logits_for(np.array([[0, 1]]), nan, insert=True)
    assert not table.table
    times = [-1.0, 0.0, 1e-5, 1.0, 2.0, 1e300, -np.inf, np.inf]
    assert table.buckets(np.array(times)).tolist() == [0, 0, 0, 7, 7, 7, 0, 7]
    assert [table.buckets(t) for t in times] == [0, 0, 0, 7, 7, 7, 0, 7]


def test_logit_table_load_of_no_entries(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(HEADER)
    table = LogitTable.load(str(path))
    assert table.keys.shape == (0, 3) and table.logits.shape == (0, 2, 3)
    assert table.predict_batch(np.array([[0, 1]]), 0.3)[0].tolist() == [[0.5, 0.5, 0.0]] * 2


def test_logit_table_load_errors(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("3 2\n")
    with pytest.raises(CorpusFormatError):
        LogitTable.load(str(path))
    path.write_text("3 2 2 8 0.0001 0.5\n0 0 0 1.0 2.0\n")
    with pytest.raises(CorpusFormatError) as exc:
        LogitTable.load(str(path))
    assert exc.value.line == 2
    path.write_text("3 2 2 8 0.0001 0.5\n\n\n0 0 0 1.0 2.0\n")
    with pytest.raises(CorpusFormatError) as exc:
        LogitTable.load(str(path))
    assert exc.value.line == 4
    path.write_text("3 2 3 8 0.0001 0.5\n")  # mask id outside the vocab
    with pytest.raises(CorpusFormatError) as exc:
        LogitTable.load(str(path))
    assert exc.value.line == 1


def test_logit_table_of_numpy_scalars_round_trips(vocab3, tmp_path):
    """A table built from numpy scalars (as a sweep over eps_t or the learning
    rate makes) used to save `np.float64(0.0001)` into its header, which its
    own load then refused."""
    table = LogitTable(
        vocab3, 2, t_buckets=np.int64(8), eps_t=np.float64(1e-4), learning_rate=np.float64(0.5)
    )
    table.logits_for(np.array([[0, 1]]), 0.5, insert=True)
    table.logits[...] = np.random.default_rng(3).normal(size=table.logits.shape)
    path = tmp_path / "table.txt"
    table.save(str(path))
    assert path.read_text().splitlines()[0] == "3 2 2 8 0.0001 0.5"
    loaded = LogitTable.load(str(path))
    assert (loaded.t_buckets, loaded.eps_t, loaded.learning_rate) == (8, 1e-4, 0.5)
    assert loaded.keys.tolist() == table.keys.tolist()
    assert loaded.logits.tobytes() == table.logits.tobytes()


@pytest.mark.parametrize(
    "load, what, text, fields, expected",
    [
        (LogitTable.load, "table file", "3 2 2 8 0.0001\n", 5, 6),
        (LogitTable.load, "table file", "3 2 2 8 0.0001 0.5 junk\n", 7, 6),
        (ToyDistribution.load, "distribution file", "3 2 2 9\n0.5 0 0\n0.5 1 1\n", 4, 3),
        (read_corpus, "corpus", "3 2 2 9\n0 0\n", 4, 3),
    ],
    ids=["table 5", "table 7", "distribution 4", "corpus 4"],
)
def test_header_of_another_field_count_is_named_error(tmp_path, load, what, text, fields, expected):
    """A table header with a seventh field used to load, and one with five
    failed with "list index out of range"."""
    path = tmp_path / "file.txt"
    path.write_text(text)
    with pytest.raises(CorpusFormatError) as exc:
        load(str(path))
    assert exc.value.line == 1
    assert str(exc.value) == f"line 1: bad {what}: header has {fields} fields, expected {expected}"


@pytest.mark.parametrize(
    "load, what, text, line",
    [
        (LogitTable.load, "table file", HEADER + "0 0 \xff" + LOGITS, 2),
        (ToyDistribution.load, "distribution file", "3 2 2\n0.5 0 0\n\n0.5 1 \xff\n", 4),
        (read_corpus, "corpus", "3 \xff 2\n0 0\n", 1),
    ],
    ids=["table", "distribution", "corpus"],
)
def test_byte_that_is_not_utf8_is_named_error(tmp_path, load, what, text, line):
    """Every record file is read as UTF-8, line by line: a byte that is not
    valid UTF-8 is a format error naming its line, not a bare ValueError."""
    path = tmp_path / "file.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CorpusFormatError, match=f"^line {line}: bad {what}: 'utf-8' codec") as exc:
        load(str(path))
    assert exc.value.line == line


def test_table_train_zero_steps(two_outcome):
    sched = make_schedule("mask", two_outcome.vocab)
    table = LogitTable(two_outcome.vocab, 2)
    report = table_train(two_outcome, sched, table, steps=0)
    assert report.steps == 0
    assert not table.table
    np.testing.assert_allclose(
        table.predict_batch(np.array([[2, 2]]), 0.5)[0], [[0.5, 0.5, 0.0]] * 2
    )


def test_table_train_reduces_kl(two_outcome):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(two_outcome, sched)
    table = LogitTable(two_outcome.vocab, 2)
    kl_before = posterior_kl_to_oracle(two_outcome, sched, oracle, table, num_samples=200)
    from mixdiff import CLAMP

    report = table_train(two_outcome, sched, table, steps=300, mode=CLAMP, seed=0)
    kl_after = posterior_kl_to_oracle(two_outcome, sched, oracle, table, num_samples=200)
    assert kl_after < kl_before
    assert report.loss_trajectory[-1] < report.loss_trajectory[0]


@pytest.mark.parametrize("num_samples", [0, -3])
def test_posterior_kl_names_too_few_samples(two_outcome, num_samples):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    oracle, table = OracleDenoiser(two_outcome, sched), LogitTable(two_outcome.vocab, 2)
    with pytest.raises(ValueError, match="num_samples must be >= 1"):
        posterior_kl_to_oracle(two_outcome, sched, oracle, table, num_samples)


@pytest.mark.parametrize("mismatch", ["table", "oracle_dist", "oracle_schedule"])
def test_posterior_kl_refuses_what_does_not_fit_its_distribution(two_outcome, mismatch):
    """These used to score: a table over Vocab(3, 0) read KL 33.9 where the
    same entries over the distribution's vocabulary read 0.235, an oracle of
    {(0, 1), (1, 0)} read 0.883, and an oracle under the mask schedule raised
    DegenerateEvidenceError at the hybrid schedule's draws."""
    vocab = two_outcome.vocab
    sched = make_schedule("hybrid", vocab, p_u=0.2)
    oracle, table = OracleDenoiser(two_outcome, sched), LogitTable(vocab, 2)
    if mismatch == "table":
        table = LogitTable(Vocab(3, 0), 2)
        msg = re.escape(
            f"table of length 2 over {table.vocab!r} does not fit the "
            f"distribution of length 2 over {vocab!r}"
        )
    else:
        if mismatch == "oracle_dist":
            other = ToyDistribution(vocab, 2, (((0, 1), 0.5), ((1, 0), 0.5)))
            oracle = OracleDenoiser(other, sched)
        else:
            oracle = OracleDenoiser(two_outcome, make_schedule("mask", vocab))
        msg = "oracle of another distribution or schedule than the one sampled"
    with pytest.raises(ValueError, match=msg):
        posterior_kl_to_oracle(two_outcome, sched, oracle, table, num_samples=200)


def test_table_train_mask_only_near_oracle(two_outcome):
    """Clamped training on the pure masking schedule gets within 10% of the oracle loss."""
    sched = make_schedule("mask", two_outcome.vocab)
    oracle = OracleDenoiser(two_outcome, sched)
    table = LogitTable(two_outcome.vocab, 2)
    from mixdiff import CLAMP

    table_train(two_outcome, sched, table, steps=600, mode=CLAMP, seed=0)

    def stream_loss(denoiser):
        return sum(
            p
            * sequence_nelbo(sched, np.array(seq), denoiser, 200, seed=123 ^ i).mean_per_token
            for i, (seq, p) in enumerate(two_outcome.outcomes)
        )

    assert stream_loss(table) <= 1.10 * stream_loss(oracle)


def test_oracle_beats_table(two_outcome):
    """The Bayes oracle is at least as good as any trained table."""
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    oracle = OracleDenoiser(two_outcome, sched)
    table = LogitTable(two_outcome.vocab, 2)
    from mixdiff import CLAMP

    table_train(two_outcome, sched, table, steps=200, mode=CLAMP, seed=3)

    def stream_loss(denoiser):
        total, se_sq = 0.0, 0.0
        for i, (seq, p) in enumerate(two_outcome.outcomes):
            est = sequence_nelbo(sched, np.array(seq), denoiser, 200, seed=50 + i)
            total += p * est.mean_per_token
            se_sq += (p * est.std_error) ** 2
        return total, np.sqrt(se_sq)

    oracle_loss, oracle_se = stream_loss(oracle)
    table_loss, table_se = stream_loss(table)
    assert oracle_loss <= table_loss + 2 * np.hypot(oracle_se, table_se)


# 300 steps of table_train on the two-outcome distribution, seed 12: sha256 of
# the saved table, the loss trajectory and posterior_kl_to_oracle of the table
# (500 samples, seed 1), recorded when each step became one minibatch update;
# the hybrid ones again when the closed forms became numpy ufunc calls (the
# tables moved, and two trajectory entries in their last bit). Keys repeat
# within a batch here, so an entry sums several gradients in one step, and
# the 300 steps cross a block boundary.
TRAIN_PINS = {
    ("mask", "clamp"): (
        "dec1b6098d25d655c2da22e196cc9649383607cad074d433233498870a912ce2",
        (0.11379614221639484, 0.10228211522165195, 0.061220839673423406,
         0.057030003457030444, 0.055664328204077164, 0.05965660053895481,
         0.04163537808048667),
        0.3656771412203857,
    ),
    ("mask", "exact"): (
        "c2736be2b7bfc2ef17af68c77249719be81e6fb0e445e5abd01da0ddb94e3b1f",
        (0.6681683766073686, 0.7580683325505059, 0.5063762171937349,
         0.4576245374533684, 2.588793652944954, 0.49205345645739645,
         0.5235764753520302),
        0.5589124593353094,
    ),
    ("hybrid", "clamp"): (
        "e66d32dea2cba5847098e01ee2538dd170b00a04bb7bde8e1cb725279477ce80",
        (0.2212884581990112, 0.14737762795710221, 0.13185566627758077,
         0.11488539530948798, 0.17181575704482507, 0.056870412921249454,
         0.13341153768235187),
        0.02992861175643183,
    ),
    ("hybrid", "exact"): (
        "c99d838d045a79fe9d6a1635fb4490f1f0c76aa742413860224e0966088d4f64",
        (0.5812044333759918, 0.7265970485303362, 0.3429605215761707,
         0.3996435887578453, 0.8130266698639794, 0.4020587470233595,
         0.7307620453359124),
        0.16646247026870586,
    ),
    ("mask", "dynamic"): (
        "a3aad80697a86480fd245438231a8a28f8da77ee86c0ccca6a8376532694a7de",
        (0.22759228443278967, 0.195176650393156, 0.1259456894281194,
         0.10203663967610054, 0.1045342524252302, 0.12463312680408806,
         0.07843515781868879),
        0.38902944266201483,
    ),
    ("hybrid", "dynamic"): (
        "b7a7195fb5d8e0d9e7da623f51e953f3a423736b00c66df678a5744f32b08465",
        (0.18753068480006987, 0.14771089920730288, 0.11392920867643458,
         0.12495418620128217, 0.13500093873719038, 0.08371467412802464,
         0.1413812997068796),
        0.10242349144489434,
    ),
}


@pytest.mark.parametrize("mode", [CLAMP, EXACT, DYNAMIC], ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_table_train_same_bits(tmp_path, two_outcome, kind, mode):
    sched = make_schedule(kind, two_outcome.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    table = LogitTable(two_outcome.vocab, 2)
    report = table_train(two_outcome, sched, table, 300, mode=mode, seed=12)
    path = tmp_path / "table.txt"
    table.save(str(path))
    oracle = OracleDenoiser(two_outcome, sched)
    digest, trajectory, kl = TRAIN_PINS[kind, mode.kind]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert report.loss_trajectory == trajectory
    assert posterior_kl_to_oracle(two_outcome, sched, oracle, table, 500, seed=1) == kl


def test_table_train_error_types(vocab3, two_outcome):
    """A table that does not fit the distribution is a named ValueError,
    raised before any draw, and the table keeps no entry."""
    sched = make_schedule("hybrid", vocab3, p_u=0.2)
    for table in (LogitTable(vocab3, 3), LogitTable(Vocab(5, 4), 2)):
        with pytest.raises(ValueError, match="does not fit the distribution"):
            table_train(two_outcome, sched, table, 2)
        assert not table.table
    with pytest.raises(ValueError, match="batch"):
        table_train(two_outcome, sched, LogitTable(vocab3, 2), 2, batch=0)


@pytest.mark.parametrize("entry", ["oracle", "table_train", "posterior_kl"])
@pytest.mark.parametrize("other", [Vocab(6, 4), Vocab(5, 0)], ids=["size", "mask_id"])
def test_schedule_over_another_vocabulary_is_named_error(five_outcome, entry, other):
    """A schedule over another vocabulary than the distribution's would
    score its tokens against the wrong mask, or index past its vocabulary."""
    sched = make_schedule("hybrid", other, p_u=0.2)
    fitting = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    table = LogitTable(five_outcome.vocab, 3)
    calls = {
        "oracle": lambda: OracleDenoiser(five_outcome, sched),
        "table_train": lambda: table_train(five_outcome, sched, table, 2),
        "posterior_kl": lambda: posterior_kl_to_oracle(
            five_outcome, sched, OracleDenoiser(five_outcome, fitting), table, 10
        ),
    }
    msg = f"schedule over {other!r} does not fit the distribution over {five_outcome.vocab!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        calls[entry]()
    assert not table.table


@pytest.mark.parametrize("entry", ["ancestral_sample_batch", "corpus_nelbo", "self_correct_batch"])
def test_entry_over_another_vocabulary_than_its_denoiser_is_named_error(five_outcome, entry):
    """The denoiser carries its vocabulary, so a schedule or mask id over
    another one is a named ValueError; the sampler used to return all-zero
    rows, corpus_nelbo finite NELBOs, and self_correct_batch raised
    MaskedInputError on clean input."""
    other = Vocab(5, 0)
    sched = make_schedule("mask", other)
    oracle = OracleDenoiser(five_outcome, make_schedule("mask", five_outcome.vocab))
    clean = five_outcome.sequences[:2]
    calls = {
        "ancestral_sample_batch": lambda: ancestral_sample_batch(
            sched, 3, oracle, SamplerConfig(num_steps=4), 3
        ),
        "corpus_nelbo": lambda: corpus_nelbo(sched, clean, oracle, 8, [1, 2]),
        "self_correct_batch": lambda: self_correct_batch(
            clean, oracle, SelfCorrectConfig(), other.mask_id, [1, 2]
        ),
    }
    what = "mask id 0" if entry == "self_correct_batch" else f"schedule over {other!r}"
    msg = f"{what} does not fit the denoiser over {five_outcome.vocab!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        calls[entry]()


def test_table_train_long_call_same_bits_in_bounded_memory(tmp_path, two_outcome):
    """Criterion 8's call, 2000 steps of 64 examples, crosses 32 blocks. Its
    final loss was recorded when each step became one minibatch update, and
    its saved table when the closed forms became numpy ufunc calls. Its peak
    traced allocation stays near one block's: 1.8 MiB measured, against 41
    MiB for the call as one block."""
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    table = LogitTable(two_outcome.vocab, 2)
    tracemalloc.start()
    try:
        report = table_train(two_outcome, sched, table, 2000, batch=64, mode=CLAMP, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert report.final_avg_loss == 0.10966690822237972
    path = tmp_path / "table.txt"
    table.save(str(path))
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "32c1f12afcfb1045333b1373a9955c29513b17b5797389ac5df683d7ee304ce6"
    )


def _train_step_by_step(
    dist, schedule, table, steps, batch, mode, seed, trajectory_every, entries=None
):
    """table_train's reference: each example noised alone and scored by one
    loss_and_grad at its entry as the step began; then each example's update,
    -learning_rate times its gradient, is added to its entry in example
    order. The entries live in a dict of their own, a copy of `entries` if
    given, returned after the trajectory and the final loss; the table gives
    only its buckets and learning rate."""
    rng = np.random.default_rng(seed)
    trajectory, avg = [], 0.0
    entries = {key: v.copy() for key, v in (entries or {}).items()}
    for step in range(steps):
        xs = dist.sample(rng, batch)
        times = stratified_times(batch, rng.random(), schedule.eps_t).tolist()
        losses, updates = np.empty(batch), []
        for i, (x, t) in enumerate(zip(xs, times)):
            z = noise_sequence(schedule, x, t, rng)
            key = (table.buckets(t), tuple(z.tolist()))
            entry = entries.setdefault(key, np.zeros((dist.length, dist.vocab.size)))
            probs = masked_softmax(entry, dist.vocab.mask_id)
            w, kl, is_term, grad = loss_and_grad(schedule, t, z, x, probs, mode)
            updates.append((key, -table.learning_rate * grad))
            losses[i] = (w * (kl + is_term)).sum()
        for key, update in updates:
            entries[key] += update
        avg = sum((losses / dist.length).tolist()) / batch
        if step % trajectory_every == 0 or step == steps - 1:
            trajectory.append(avg)
    return tuple(trajectory), avg, entries


def _training_distribution(which):
    if which == "two":
        return ToyDistribution(Vocab(3, 2), 2, (((0, 0), 0.5), ((1, 1), 0.5)))
    if which == "nine":  # N >= 8, where numpy sums the vocabulary pairwise; mask id mid-vocabulary
        return ToyDistribution(
            Vocab(9, 4), 2, (((0, 8), 0.3), ((3, 5), 0.25), ((8, 8), 0.2), ((1, 6), 0.15),
                             ((7, 2), 0.1))
        )
    return ToyDistribution(
        Vocab(5, 4), 3, (((0, 1, 2), 0.3), ((1, 2, 3), 0.25), ((2, 3, 0), 0.2),
                         ((3, 0, 1), 0.15), ((0, 0, 0), 0.1))
    )


@settings(max_examples=40, deadline=None)
@given(
    which=st.sampled_from(["two", "five", "nine"]),
    kind=st.sampled_from(["mask", "hybrid"]),
    mode=st.sampled_from([EXACT, CLAMP, DYNAMIC]),
    steps=st.integers(0, 4),
    batch=st.integers(1, 40),
    t_buckets=st.integers(1, 8),
    learning_rate=st.sampled_from([0.1, 0.5, 2.0]),
    trajectory_every=st.integers(1, 3),
    written=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# blocks of TRAIN_BLOCK // 64 steps and 2 steps, the last recorded step in the second
@example(which="two", kind="hybrid", mode=CLAMP, steps=TRAIN_BLOCK // 64 + 2, batch=64,
         t_buckets=8, learning_rate=0.5, trajectory_every=50, written=False, seed=7)
# one bucket: the all-mask key takes about a third of each step's 256 examples
@example(which="two", kind="mask", mode=DYNAMIC, steps=3, batch=256,
         t_buckets=1, learning_rate=2.0, trajectory_every=1, written=False, seed=4)
# a batch that does not divide TRAIN_BLOCK: blocks of 136 steps and 1 step, from written logits
@example(which="five", kind="hybrid", mode=EXACT, steps=TRAIN_BLOCK // 30 + 1, batch=30,
         t_buckets=3, learning_rate=0.1, trajectory_every=7, written=True, seed=11)
def test_table_train_equals_step_by_step(
    tmp_path_factory, which, kind, mode, steps, batch, t_buckets, learning_rate,
    trajectory_every, written, seed
):
    """The blocks give the bits of the step-by-step minibatch loop: every
    entry, the trajectory and the final loss, and no mask logit moves.
    A `written` table starts from a file written by hand with nonzero logits
    in every entry, the mask column included, and the loop from the same
    entries: a kernel that assumed zero logits, or pinned the mask column
    and did not restore it, would differ."""
    dist = _training_distribution(which)
    vocab, sched = dist.vocab, make_schedule(kind, dist.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    table = LogitTable(vocab, dist.length, t_buckets=t_buckets, learning_rate=learning_rate)
    if written:
        rng, path = np.random.default_rng(seed), tmp_path_factory.mktemp("table") / "table.txt"
        header = (vocab.size, dist.length, vocab.mask_id, t_buckets, 0.0001, learning_rate)
        lines = [" ".join(map(repr, header))]
        for b in range(t_buckets):
            for seq in np.ndindex(*(vocab.size,) * dist.length):
                logits = rng.normal(size=dist.length * vocab.size).tolist()
                lines.append(" ".join([str(b), *map(str, seq), *map(repr, logits)]))
        path.write_text("\n".join(lines) + "\n")
        table = LogitTable.load(str(path))
    begin = {key: v.copy() for key, v in table.table.items()}
    with mock.patch("mixdiff.denoiser.TRAJECTORY_EVERY", trajectory_every):
        report = table_train(dist, sched, table, steps, batch, mode, seed)
    *expect, entries = _train_step_by_step(
        dist, sched, table, steps, batch, mode, seed, trajectory_every, entries=begin
    )
    assert [report.loss_trajectory, report.final_avg_loss] == expect
    assert sorted(table.table) == sorted(entries)
    zeros = np.zeros((dist.length, vocab.size))
    for key, entry in entries.items():
        assert table.table[key].tobytes() == entry.tobytes()
        mask_logits = begin.get(key, zeros)[:, vocab.mask_id]
        assert entry[:, vocab.mask_id].tobytes() == mask_logits.tobytes()


@pytest.mark.parametrize("mode", [EXACT, CLAMP, DYNAMIC], ids=lambda m: m.kind)
@pytest.mark.parametrize("kind", ["mask", "hybrid"])
def test_table_train_summed_updates_stay_finite(tmp_path, two_outcome, kind, mode):
    """With one bucket, batch 4096 and learning rate 10, each step sums
    hundreds of gradients into each of a handful of entries. The logits grow
    large (about 6e3 at most) but stay finite, and the table round-trips
    through save and load bit for bit."""
    sched = make_schedule(kind, two_outcome.vocab, p_u=0.2 if kind == "hybrid" else 0.0)
    table = LogitTable(two_outcome.vocab, 2, t_buckets=1, learning_rate=10.0)
    report = table_train(two_outcome, sched, table, 20, batch=4096, mode=mode, seed=0)
    assert np.isfinite(table.logits).all() and np.isfinite(report.loss_trajectory).all()
    path = tmp_path / "table.txt"
    table.save(str(path))
    loaded = LogitTable.load(str(path))
    assert loaded.keys.tobytes() == table.keys.tobytes()
    assert loaded.logits.tobytes() == table.logits.tobytes()


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"t_buckets": 0}, "t_buckets must be >= 1"),
        ({"eps_t": 0.0}, "eps_t must lie in"),
        ({"eps_t": 0.5}, "eps_t must lie in"),
        ({"eps_t": float("nan")}, "eps_t must lie in"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
        ({"learning_rate": -1.0}, "learning_rate must be finite and > 0"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
        ({"eps_t": 1e-100}, "1 - eps_t rounds to 1"),
    ],
)
def test_logit_table_validates_parameters(vocab3, kwargs, match):
    with pytest.raises(ValueError, match=match):
        LogitTable(vocab3, 2, **kwargs)


@pytest.mark.parametrize("kwargs", [{"batch": 0}, {"batch": -1}, {"steps": -3}])
def test_table_train_names_bad_arguments(two_outcome, kwargs):
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    table = LogitTable(two_outcome.vocab, 2)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        table_train(two_outcome, sched, table, **{"steps": 2, **kwargs})
    assert not table.table


@pytest.mark.parametrize("mode", [CLAMP, EXACT, DYNAMIC], ids=lambda m: m.kind)
def test_table_train_evaluates_schedule_once_per_step(two_outcome, mode):
    """One c_t evaluation serves a step's noise and its loss and gradient."""
    sched = make_schedule("hybrid", two_outcome.vocab, p_u=0.2)
    table = LogitTable(two_outcome.vocab, 2)
    with mock.patch.object(
        MixingSchedule, "_c", autospec=True, side_effect=MixingSchedule._c
    ) as c:
        table_train(two_outcome, sched, table, 20, mode=mode, seed=3)
    assert 0 < c.call_count <= 20


class _RowsOnly(Denoiser):
    """A denoiser whose prediction of each row depends on that row's time."""

    def predict_batch(self, z_seqs, t):
        z = np.asarray(z_seqs)
        t = np.reshape(np.broadcast_to(t, len(z)), (-1, 1, 1))
        out = np.zeros(z.shape + (5,))
        np.put_along_axis(out, z[..., None] % 4, t, axis=-1)
        out[..., 3] += 1.0 - t[..., 0]
        return out


def test_denoiser_without_predict_batch_is_named_error():
    class _Neither(Denoiser):
        pass

    with pytest.raises(NotImplementedError, match="_Neither does not define predict_batch"):
        _Neither().predict_batch([[0, 1]], 0.5)


def test_predict_batch_per_row_times(five_outcome):
    sched = make_schedule("hybrid", five_outcome.vocab, p_u=0.2)
    table = LogitTable(five_outcome.vocab, 3, t_buckets=4)
    table_train(five_outcome, sched, table, 20, mode=CLAMP, seed=1)
    rng = np.random.default_rng(2)
    z = rng.integers(0, 5, size=(30, 3))
    z[:10] = z[0]  # repeated rows at different times
    times = rng.uniform(sched.eps_t, 1.0 - sched.eps_t, 30)
    for denoiser in (OracleDenoiser(five_outcome, sched), table, _RowsOnly()):
        batched = denoiser.predict_batch(z, times)
        assert batched.shape == (30, 3, 5)
        for b in range(30):
            alone = denoiser.predict_batch(z[b][None], float(times[b]))[0]
            assert batched[b].tobytes() == alone.tobytes()
        shared = denoiser.predict_batch(z, 0.3)
        for b in range(30):
            assert shared[b].tobytes() == denoiser.predict_batch(z[b][None], 0.3)[0].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([2, 3, 5, 9]),
    length=st.sampled_from([1, 2, 3, 7, 36, 40, 56]),
    rows=st.integers(1, 3000),
    pool=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, length=3, rows=20000, pool=125, seed=1)  # key space 125: marks
@example(n=8, length=3, rows=64, pool=8, seed=2)  # key space 512 <= 8 * rows: marks
@example(n=8, length=3, rows=63, pool=8, seed=2)  # key space 512 > 8 * rows: sorts
@example(n=5, length=40, rows=2000, pool=8, seed=3)  # blocks of 17, 17, 6: all sort
@example(n=5, length=36, rows=2000, pool=8, seed=3)  # blocks of 17, 17, 2: sort, sort, marks
@example(n=2, length=56, rows=300, pool=5, seed=4)  # blocks of 53, 3: sort, marks
@example(n=2, length=3, rows=8, pool=8, seed=5)  # key space 8: marks
def test_distinct_rows_equal_unique(n, length, rows, pool, seed):
    """Equal to np.unique over rows, on both sides of the marks/sort choice,
    in one block or several, for row-major and column-major z."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, n, (pool, length))[rng.integers(0, pool, rows)]
    expect, expect_index = np.unique(z, axis=0, return_inverse=True)
    for order in "CF":
        distinct, index = _distinct_rows(np.asarray(z, order=order), n)
        assert distinct.dtype == np.int64 and index.dtype == np.int64
        np.testing.assert_array_equal(distinct, expect)
        np.testing.assert_array_equal(index, expect_index.reshape(-1))


def test_distinct_rows_refuses_a_base_whose_keys_overflow():
    """Keyed as index * n + token, three distinct first tokens of base 2**62
    wrapped past 2**63, and the distinct rows came out of order."""
    z = np.array([[0, 1], [1, 2], [2, 0]]) * 2**60
    with pytest.raises(ValueError, match="cannot key 3 rows of base 4611686018427387904"):
        _distinct_rows(z, 2**62)


@pytest.mark.parametrize("t_buckets", [2**62, 10**20])
def test_logit_table_refuses_t_buckets_whose_keys_overflow(vocab3, t_buckets):
    """At 2**62 buckets a table kept 4 entries, out of lexicographic order,
    after inserting 5 distinct keys; at 10**20 bucketing raised OverflowError."""
    with pytest.raises(ValueError, match="t_buckets must be >= 1 and <= 2\\*\\*32"):
        LogitTable(vocab3, 2, t_buckets=t_buckets)
    table = LogitTable(vocab3, 2, t_buckets=2**32)
    z = np.array([[0, 1], [1, 0], [0, 0], [1, 1], [0, 1]])
    times = np.array([0.9, 0.7, 0.5, 0.3, 1e-4])
    table.logits_for(z, times, insert=True)
    buckets = table.buckets(times)
    assert table.keys.tolist() == sorted([b, *row] for b, row in zip(buckets.tolist(), z.tolist()))


def test_toy_distribution_rejects_nan_probability(vocab3, tmp_path):
    """NaN passed both `prob < 0` and `abs(total - 1) > tol`, each False for it."""
    with pytest.raises(ValueError, match="nonnegative"):
        ToyDistribution(vocab3, 2, (((0, 0), float("nan")), ((1, 1), 1.0)))
    with pytest.raises(ValueError, match="sum to"):
        ToyDistribution(vocab3, 2, (((0, 0), 0.5), ((1, 1), float("inf"))))


_FACTOR_DIST = ToyDistribution(
    Vocab(5, 4), 3, (((0, 1, 2), 0.4), ((1, 2, 3), 0.3), ((3, 3, 0), 0.2), ((0, 0, 0), 0.1))
)


def _posterior_by_product(oracle, z, t):
    """The oracle's posterior with the per-token factor written as
    alpha_t * [z = x] + beta_t pi_t[z]."""
    terms = oracle.schedule.terms(t)
    a, bp = np.reshape(terms.alpha, (-1, 1, 1)), np.reshape(terms.beta_pi, (-1, 5))
    match = z[:, None, :] == oracle.dist.sequences[None, :, :]
    bp_z = bp[np.arange(len(bp))[:, None], z]
    w = (a * match + bp_z[:, None, :]).prod(axis=2) * oracle.dist.probs[None, :]
    return w / w.sum(axis=1)[:, None]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["mask", "hybrid"]),
    st.floats(0.01, 0.5),
    st.integers(1, 30),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_oracle_factor_equals_product_form(kind, p_u, rows, one_time, seed):
    """The oracle's np.where factor has the bits of alpha_t * match + beta_t pi_t[z]."""
    rng = np.random.default_rng(seed)
    sched = make_schedule(kind, _FACTOR_DIST.vocab, p_u=p_u if kind == "hybrid" else 0.0)
    oracle = OracleDenoiser(_FACTOR_DIST, sched)
    t = stratified_times(rows, rng.random(), sched.eps_t)
    t = float(t[0]) if one_time else t
    z = noise_sequence(sched, _FACTOR_DIST.sample(rng, rows), t, rng)
    want = _posterior_by_product(oracle, z, t)
    assert oracle._posterior(z, t).tobytes() == want.tobytes()
