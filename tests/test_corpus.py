"""Tests for corpus loading, validation, and the hash embedder."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from avstitch.corpus import Corpus, TrimmedClip, hash_embed, load_corpus, write_corpus


def make_clip(i: int, embedding: tuple[float, ...] | None = None) -> TrimmedClip:
    return TrimmedClip(id=f"c{i}", duration_s=4.0 + i, caption=f"caption {i}", embedding=embedding)


class TestTrimmedClip:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration_s"):
            TrimmedClip(id="x", duration_s=0.0, caption="hi")
        with pytest.raises(ValueError, match="duration_s"):
            TrimmedClip(id="x", duration_s=-1.5, caption="hi")

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="id"):
            TrimmedClip(id="", duration_s=1.0, caption="hi")

    def test_caption_optional_only_with_labels(self):
        # label-only records are legal, fully empty ones are not
        TrimmedClip(id="x", duration_s=1.0, caption="", labels=("Bark",))
        with pytest.raises(ValueError, match="caption or at least one label"):
            TrimmedClip(id="x", duration_s=1.0, caption="")


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        clips = [make_clip(1), make_clip(1)]
        with pytest.raises(ValueError, match="duplicate clip id"):
            Corpus.from_clips(clips)

    def test_dim_consistency_enforced(self):
        clips = [make_clip(1, (1.0, 0.0)), make_clip(2, (1.0, 0.0, 0.0))]
        with pytest.raises(ValueError, match="embedding length"):
            Corpus.from_clips(clips)

    def test_mixed_embedding_presence_rejected(self):
        with pytest.raises(ValueError, match="lacks an embedding"):
            Corpus.from_clips([make_clip(1, (1.0, 0.0)), make_clip(2)])
        with pytest.raises(ValueError, match="declares none"):
            Corpus.from_clips([make_clip(1), make_clip(2, (1.0, 0.0))])

    def test_embedding_matrix_shape_and_order(self):
        clips = [make_clip(1, (1.0, 0.0)), make_clip(2, (0.0, 1.0))]
        mat = Corpus.from_clips(clips).embedding_matrix()
        assert mat.shape == (2, 2)
        assert np.array_equal(mat, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_with_hash_embeddings(self):
        corpus = Corpus.from_clips([make_clip(1), make_clip(2)])
        embedded = corpus.with_hash_embeddings(dim=32, seed=3)
        assert embedded.embedding_dim == 32
        assert all(len(c.embedding) == 32 for c in embedded.clips)
        # original untouched
        assert corpus.embedding_dim == 0


class TestHashEmbed:
    def test_unit_norm_and_determinism(self):
        v1 = hash_embed("a dog barks loudly in the yard", 256, 7)
        v2 = hash_embed("a dog barks loudly in the yard", 256, 7)
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_matches_bag_of_words_overlap(self):
        # 4 shared tokens {the, dog, barks, loudly}; 7 and 5 tokens total,
        # all distinct, no bucket collisions at dim 256, so the cosine must
        # equal the exact bag-of-words value 4 / sqrt(7 * 5).
        a = hash_embed("a dog barks loudly in the yard", 256, 7)
        b = hash_embed("the dog barks loudly outside", 256, 7)
        assert float(a @ b) == pytest.approx(4.0 / math.sqrt(35.0), abs=1e-12)

    def test_disjoint_captions_orthogonal(self):
        a = hash_embed("a dog barks loudly in the yard", 256, 7)
        c = hash_embed("quiet piano music plays softly", 256, 7)
        assert float(a @ c) == pytest.approx(0.0, abs=1e-12)

    def test_seed_changes_mapping(self):
        a7 = hash_embed("a dog barks loudly in the yard", 256, 7)
        a9 = hash_embed("a dog barks loudly in the yard", 256, 9)
        assert not np.array_equal(a7, a9)

    def test_whitespace_caption_still_unit_norm(self):
        v = hash_embed("   ", 16, 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_dim_floor(self):
        with pytest.raises(ValueError, match="dim"):
            hash_embed("hello", 1, 0)

    def test_case_and_whitespace_insensitive_tokenization(self):
        v1 = hash_embed("Dog  Barks", 64, 0)
        v2 = hash_embed("dog barks", 64, 0)
        assert np.array_equal(v1, v2)


class TestJsonlRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        clips = [
            TrimmedClip(id="a", duration_s=3.25, caption="first", embedding=(0.5, -0.5)),
            TrimmedClip(id="b", duration_s=10.0, caption="second", embedding=(1.0, 0.0), labels=("Bark", "Speech")),
        ]
        corpus = Corpus.from_clips(clips)
        path = tmp_path / "clips.jsonl"
        write_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == corpus

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok"})
            + "\n{not json}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_corpus(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "caption": "ok"}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duration_s"):
            load_corpus(path)

    def test_load_rejects_bad_embedding_type(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok", "embedding": ["x"]}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="embedding"):
            load_corpus(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "clips.jsonl"
        path.write_text(
            "\n" + json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok"}) + "\n\n",
            encoding="utf-8",
        )
        assert len(load_corpus(path)) == 1

    def test_sidecar_embeddings(self, tmp_path):
        mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.save(tmp_path / "emb.npy", mat)
        path = tmp_path / "clips.jsonl"
        lines = [
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok", "embedding_row": 1}),
            json.dumps({"id": "b", "duration_s": 2.0, "caption": "ok", "embedding_row": 0}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(path, embeddings_path=tmp_path / "emb.npy")
        assert corpus.clips[0].embedding == (0.0, 1.0)
        assert corpus.clips[1].embedding == (1.0, 0.0)

    def test_sidecar_rejects_non_finite_row(self, tmp_path):
        sidecar = tmp_path / "emb.npy"
        np.save(sidecar, np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]]))
        path = tmp_path / "clips.jsonl"
        path.write_text(
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok", "embedding_row": 0}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=re.escape(f"{sidecar}: row 2 holds a non-finite value")):
            load_corpus(path, embeddings_path=sidecar)

    def test_sidecar_row_out_of_range(self, tmp_path):
        np.save(tmp_path / "emb.npy", np.zeros((2, 2)))
        path = tmp_path / "clips.jsonl"
        path.write_text(
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok", "embedding_row": 5}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="embedding_row"):
            load_corpus(path, embeddings_path=tmp_path / "emb.npy")

    def test_sidecar_reference_without_matrix(self, tmp_path):
        path = tmp_path / "clips.jsonl"
        path.write_text(
            json.dumps({"id": "a", "duration_s": 1.0, "caption": "ok", "embedding_row": 0}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="sidecar"):
            load_corpus(path)
