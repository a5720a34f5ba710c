"""Tests for token resampling, slot patterns, and interleaving."""

from __future__ import annotations

import json

import numpy as np
import pytest

from avstitch.interleave import (
    AUDIO,
    DEFAULT_AUDIO_RATE,
    DEFAULT_CONTEXT_LEN,
    VIDEO,
    ContextToken,
    InterleavedContext,
    TokenSequence,
    interleave,
    load_context,
    load_tokens,
    resample,
    save_context,
    save_tokens,
    slot_pattern,
)


def seq(modality: str, rows: int, dim: int = 3, seed: int = 0) -> TokenSequence:
    rng = np.random.default_rng(seed)
    return TokenSequence(modality=modality, data=rng.normal(size=(rows, dim)))


def oracle_tokens(
    video: TokenSequence | None, audio: TokenSequence | None, length: int, audio_rate: float
) -> tuple[ContextToken, ...]:
    """Test-only reference: the per-slot loop that interleave() used to run."""
    slots = slot_pattern(length, audio_rate)
    stride = (slots.videos_per_audio + 1) if slots.videos_per_audio is not None else 0
    video_rows = resample(video, slots.n_video).data if slots.n_video else None
    audio_rows = resample(audio, slots.n_audio).data if slots.n_audio else None
    tokens: list[ContextToken] = []
    for t in range(1, length + 1):
        if slots.pattern[t - 1] == AUDIO:
            j = t // stride  # t is divisible by stride, so this is ceil(t / stride)
            tokens.append(
                ContextToken(modality=AUDIO, source_index=j, vector=tuple(map(float, audio_rows[j - 1])))
            )
        else:
            rank = t - (t // stride if stride else 0)
            tokens.append(
                ContextToken(modality=VIDEO, source_index=rank, vector=tuple(map(float, video_rows[rank - 1])))
            )
    return tuple(tokens)


class TestDefaults:
    def test_context_defaults(self):
        assert DEFAULT_CONTEXT_LEN == 100
        assert DEFAULT_AUDIO_RATE == 0.25


class TestTokenSequence:
    def test_rejects_bad_modality(self):
        with pytest.raises(ValueError, match="modality"):
            TokenSequence(modality="text", data=np.ones((2, 2)))

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            TokenSequence(modality="video", data=np.ones(4))
        with pytest.raises(ValueError, match="rows"):
            TokenSequence(modality="video", data=np.ones((0, 4)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TokenSequence(modality="video", data=np.array([[1.0, np.nan]]))


class TestResample:
    def test_linear_midpoint(self):
        out = resample(TokenSequence("video", np.array([[0.0], [2.0]])), 3)
        assert out.data.ravel().tolist() == [0.0, 1.0, 2.0]

    def test_same_length_bitwise_identity(self):
        source = seq("audio", 17, dim=5, seed=2)
        out = resample(source, 17)
        assert np.array_equal(out.data, source.data)

    def test_single_row_repeated(self):
        out = resample(TokenSequence("audio", np.array([[3.0, 4.0]])), 5)
        assert out.length == 5
        assert np.array_equal(out.data, np.tile([3.0, 4.0], (5, 1)))

    def test_endpoints_fixed(self):
        source = seq("video", 9, seed=4)
        out = resample(source, 23)
        assert np.array_equal(out.data[0], source.data[0])
        assert np.array_equal(out.data[-1], source.data[-1])

    def test_monotone_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows = int(rng.integers(2, 40))
            target = int(rng.integers(1, 60))
            values = np.sort(rng.normal(size=rows))
            out = resample(TokenSequence("video", values[:, None]), target)
            flat = out.data.ravel()
            assert np.all(np.diff(flat) >= -1e-12)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target_len"):
            resample(seq("video", 3), 0)


class TestSlotPattern:
    # audio/video slot counts for the full rate grid at length 100
    GRID_COUNTS = {
        0.0: (0, 100),
        0.1: (10, 90),
        0.2: (20, 80),
        0.25: (25, 75),
        0.3: (33, 67),
        0.4: (50, 50),
        0.5: (50, 50),
        0.6: (100, 0),
        0.7: (100, 0),
        0.8: (100, 0),
        0.9: (100, 0),
        1.0: (100, 0),
    }

    def test_grid_counts(self):
        for rate, (n_audio, n_video) in self.GRID_COUNTS.items():
            slots = slot_pattern(100, rate)
            assert (slots.n_audio, slots.n_video) == (n_audio, n_video), f"rate {rate}"

    def test_audio_positions_match_independent_enumeration(self):
        for rate in self.GRID_COUNTS:
            if rate == 0.0:
                continue
            slots = slot_pattern(100, rate)
            stride = slots.videos_per_audio + 1
            from_pattern = [t for t in range(1, 101) if slots.pattern[t - 1] == "audio"]
            by_modulus = [t for t in range(1, 101) if t % stride == 0]
            assert from_pattern == by_modulus

    def test_rate_with_integer_quotient_near_float_boundary(self):
        # 1/0.05 - 1 = 19 exactly; binary floats evaluate (1-0.05)/0.05 to
        # 18.999... so a naive floor would produce 18
        assert slot_pattern(100, 0.05).videos_per_audio == 19
        assert slot_pattern(100, 0.05).n_audio == 5

    def test_quarter_rate_pattern(self):
        slots = slot_pattern(100, 0.25)
        assert slots.videos_per_audio == 3
        audio_positions = {t for t in range(1, 101) if slots.pattern[t - 1] == "audio"}
        assert audio_positions == set(range(4, 101, 4))

    def test_full_audio(self):
        slots = slot_pattern(7, 1.0)
        assert slots.videos_per_audio == 0
        assert slots.pattern == ("audio",) * 7

    def test_audio_count_monotone_in_rate(self):
        previous = -1
        for step in range(101):
            n_audio = slot_pattern(100, step / 100).n_audio
            assert n_audio >= previous
            previous = n_audio

    def test_validation(self):
        with pytest.raises(ValueError, match="audio_rate"):
            slot_pattern(100, -0.1)
        with pytest.raises(ValueError, match="audio_rate"):
            slot_pattern(100, 1.5)
        with pytest.raises(ValueError, match="length"):
            slot_pattern(0, 0.5)


class TestInterleave:
    def test_worked_example_length_8(self):
        video = TokenSequence("video", np.arange(1.0, 7.0)[:, None])
        audio = TokenSequence("audio", np.array([[101.0], [102.0]]))
        ctx = interleave(video, audio, length=8, audio_rate=0.25)
        assert ctx.pattern == ("video",) * 3 + ("audio",) + ("video",) * 3 + ("audio",)
        assert [(t.modality, t.source_index, t.vector[0]) for t in ctx.tokens] == [
            ("video", 1, 1.0),
            ("video", 2, 2.0),
            ("video", 3, 3.0),
            ("audio", 1, 101.0),
            ("video", 4, 4.0),
            ("video", 5, 5.0),
            ("video", 6, 6.0),
            ("audio", 2, 102.0),
        ]

    def test_zero_rate_is_resampled_video(self):
        video = seq("video", 13, seed=5)
        ctx = interleave(video, None, length=10, audio_rate=0.0)
        assert ctx.pattern == ("video",) * 10
        expected = resample(video, 10).data
        got = np.array([t.vector for t in ctx.tokens])
        assert np.array_equal(got, expected)

    def test_full_rate_is_resampled_audio(self):
        audio = seq("audio", 4, seed=6)
        ctx = interleave(None, audio, length=6, audio_rate=1.0)
        assert ctx.pattern == ("audio",) * 6
        expected = resample(audio, 6).data
        got = np.array([t.vector for t in ctx.tokens])
        assert np.array_equal(got, expected)

    def test_missing_required_stream_rejected(self):
        with pytest.raises(ValueError, match="video tokens required"):
            interleave(None, seq("audio", 4), length=10, audio_rate=0.25)
        with pytest.raises(ValueError, match="audio tokens required"):
            interleave(seq("video", 4), None, length=10, audio_rate=0.25)

    def test_swapped_modalities_rejected(self):
        with pytest.raises(ValueError, match="expected a video sequence"):
            interleave(seq("audio", 4), seq("audio", 4), length=10, audio_rate=0.25)

    def test_subsequences_equal_resampled_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            length = int(rng.integers(1, 128))
            rate = float(rng.uniform(0.01, 0.99))
            video = seq("video", int(rng.integers(1, 40)), seed=int(rng.integers(1 << 30)))
            audio = seq("audio", int(rng.integers(1, 40)), seed=int(rng.integers(1 << 30)))
            ctx = interleave(video, audio, length=length, audio_rate=rate)
            n_audio = sum(1 for p in ctx.pattern if p == "audio")
            n_video = length - n_audio
            if n_audio:
                audio_rows = np.array([t.vector for t in ctx.subsequence("audio")])
                assert np.array_equal(audio_rows, resample(audio, n_audio).data)
            if n_video:
                video_rows = np.array([t.vector for t in ctx.subsequence("video")])
                assert np.array_equal(video_rows, resample(video, n_video).data)

    def test_each_source_row_used_exactly_once(self):
        ctx = interleave(seq("video", 30), seq("audio", 9), length=50, audio_rate=0.2)
        audio_idx = [t.source_index for t in ctx.subsequence("audio")]
        video_idx = [t.source_index for t in ctx.subsequence("video")]
        assert audio_idx == list(range(1, len(audio_idx) + 1))
        assert video_idx == list(range(1, len(video_idx) + 1))

    def test_synchrony_within_one_slot_width(self):
        # a token's source rank, mapped back to the timeline, must sit within
        # one slot width of its context position
        rng = np.random.default_rng(77)
        for _ in range(40):
            length = int(rng.integers(2, 200))
            rate = float(rng.uniform(0.02, 0.98))
            ctx = interleave(
                seq("video", int(rng.integers(1, 30)), seed=1),
                seq("audio", int(rng.integers(1, 30)), seed=2),
                length=length,
                audio_rate=rate,
            )
            counts = {"audio": 0, "video": 0}
            for p in ctx.pattern:
                counts[p] += 1
            for position, token in enumerate(ctx.tokens, start=1):
                n = counts[token.modality]
                assert abs(token.source_index / n - position / length) <= 1 / n + 1e-12

    def test_mixed_dims_allowed(self):
        ctx = interleave(seq("video", 6, dim=4), seq("audio", 3, dim=2), length=8, audio_rate=0.25)
        dims = {t.modality: len(t.vector) for t in ctx.tokens}
        assert dims == {"video": 4, "audio": 2}

    def test_output_length_always_matches(self):
        for rate in (0.0, 0.17, 0.5, 0.83, 1.0):
            ctx = interleave(seq("video", 7), seq("audio", 5), length=31, audio_rate=rate)
            assert ctx.length == 31
            assert len(ctx.tokens) == 31


class TestTokenIO:
    def test_json_round_trip_exact(self, tmp_path):
        source = seq("audio", 7, dim=3, seed=9)
        path = tmp_path / "tokens.json"
        save_tokens(source, path, fmt="json")
        loaded = load_tokens(path, fmt="json")
        assert loaded.modality == "audio"
        assert np.array_equal(loaded.data, source.data)

    def test_raw_round_trip_float32(self, tmp_path):
        source = seq("video", 11, dim=4, seed=10)
        path = tmp_path / "tokens.f32"
        save_tokens(source, path, fmt="raw")
        assert (tmp_path / "tokens.f32.json").exists()
        loaded = load_tokens(path, fmt="raw")
        assert loaded.modality == "video"
        assert loaded.data.shape == source.data.shape
        assert np.array_equal(loaded.data, source.data.astype("<f4").astype(np.float64))

    def test_raw_without_sidecar_rejected(self, tmp_path):
        path = tmp_path / "tokens.f32"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(ValueError, match="sidecar"):
            load_tokens(path, fmt="raw")

    def test_raw_size_mismatch_rejected(self, tmp_path):
        source = seq("video", 4, dim=2)
        path = tmp_path / "tokens.f32"
        save_tokens(source, path, fmt="raw")
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(ValueError, match="header promises"):
            load_tokens(path, fmt="raw")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_tokens(seq("video", 2), tmp_path / "x", fmt="yaml")

    def test_context_round_trip(self, tmp_path):
        ctx = interleave(seq("video", 9), seq("audio", 4), length=12, audio_rate=0.25)
        path = tmp_path / "context.json"
        save_context(ctx, path)
        assert load_context(path) == ctx


class TestInterleavedContext:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            InterleavedContext(
                length=3, audio_rate=0.0, videos_per_audio=None, pattern=("video",), video=None, audio=None
            )

    def test_row_counts_must_match_pattern(self):
        pattern = ("video", "video", "audio")
        fields = dict(length=3, audio_rate=0.5, videos_per_audio=2, pattern=pattern)
        InterleavedContext(**fields, video=np.zeros((2, 4)), audio=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="2 video slots but 3 video rows"):
            InterleavedContext(**fields, video=np.zeros((3, 4)), audio=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="1 audio slots but 0 audio rows"):
            InterleavedContext(**fields, video=np.zeros((2, 4)), audio=None)
        with pytest.raises(ValueError, match="0 audio slots but 1 audio rows"):
            InterleavedContext(
                length=2, audio_rate=0.0, videos_per_audio=None, pattern=("video",) * 2,
                video=np.zeros((2, 4)), audio=np.zeros((1, 4)),
            )
        with pytest.raises(ValueError, match="length"):
            InterleavedContext(**{**fields, "pattern": ("video", "text", "audio")}, video=np.zeros((1, 4)),
                               audio=np.zeros((1, 2)))

    def test_tokens_match_per_slot_oracle(self):
        rng = np.random.default_rng(2024)
        rates = [0.0, 1.0, 0.05, 0.25, 0.3, 0.5] + [float(r) for r in rng.uniform(0.0, 1.0, size=34)]
        for case, rate in enumerate(rates):
            length = int(rng.integers(1, 257))
            video_dim = int(rng.integers(1, 9))
            audio_dim = video_dim if case % 2 else int(rng.integers(1, 9))
            video = seq("video", int(rng.integers(1, 300)), dim=video_dim, seed=case)
            audio = seq("audio", int(rng.integers(1, 300)), dim=audio_dim, seed=1000 + case)
            ctx = interleave(video, audio, length=length, audio_rate=rate)
            assert ctx.tokens == oracle_tokens(video, audio, length, rate), f"case {case}"
            assert all(type(x) is float for tok in ctx.tokens[:3] for x in tok.vector)
            slots = slot_pattern(length, rate)
            for rows, source, n in ((ctx.video, video, slots.n_video), (ctx.audio, audio, slots.n_audio)):
                if n == 0:
                    assert rows is None
                else:
                    expected = resample(source, n).data
                    assert rows.dtype == expected.dtype and rows.shape == expected.shape
                    assert rows.tobytes() == expected.tobytes()

    def test_context_round_trip_compares_tokens(self, tmp_path):
        ctx = interleave(seq("video", 9, dim=4), seq("audio", 4, dim=2), length=12, audio_rate=0.25)
        path = tmp_path / "context.json"
        save_context(ctx, path)
        loaded = load_context(path)
        assert loaded == ctx and loaded.tokens == ctx.tokens
        other = interleave(seq("video", 9, dim=4), seq("audio", 4, dim=2, seed=1), length=12, audio_rate=0.25)
        assert loaded != other

    def test_load_context_rejects_tokens_off_pattern(self, tmp_path):
        ctx = interleave(seq("video", 9), seq("audio", 4), length=8, audio_rate=0.25)
        path = tmp_path / "context.json"
        save_context(ctx, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["tokens"][0]["source_index"] = 2
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="source indices disagree"):
            load_context(path)
