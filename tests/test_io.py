import importlib.resources
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argbayes import io
from argbayes.af import SEMANTICS, ArgumentationFramework
from argbayes.errors import (
    ConfigError,
    DegenerateEvidenceError,
    InputError,
    ParseError,
    SchemaError,
)
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    PosteriorDistribution,
    exact_posterior,
    posterior_predictive,
)
from argbayes.model import FAMILIES, ModelConfig


DATA = importlib.resources.files("argbayes") / "data"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestFrameworkFiles:
    def test_round_trip_symmetric(self, tmp_path):
        af = ArgumentationFramework.from_pairs(
            3, [(0, 1), (1, 2)], names=("a", "b", "c"), symmetric=True)
        path = tmp_path / "af.json"
        io.save_framework(path, af)
        assert io.load_framework(path) == af

    def test_round_trip_directed(self, tmp_path):
        af = ArgumentationFramework.from_pairs(
            2, [(0, 1), (1, 1)], names=("x", "y"))
        path = tmp_path / "af.json"
        io.save_framework(path, af)
        assert io.load_framework(path) == af

    def test_empty_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            io.load_framework(write(tmp_path, "af.json", ""))

    def test_invalid_json_location(self, tmp_path):
        with pytest.raises(ParseError, match="line"):
            io.load_framework(write(tmp_path, "af.json", '{"arguments": ['))

    def test_unknown_argument_in_attack(self, tmp_path):
        doc = '{"arguments": ["a"], "attacks": [["a", "z"]]}'
        with pytest.raises(SchemaError, match="'z'"):
            io.load_framework(write(tmp_path, "af.json", doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = '{"arguments": ["a"], "attacks": [], "weights": []}'
        with pytest.raises(SchemaError, match="weights"):
            io.load_framework(write(tmp_path, "af.json", doc))

    def test_duplicate_arguments_rejected(self, tmp_path):
        doc = '{"arguments": ["a", "a"], "attacks": []}'
        with pytest.raises(SchemaError):
            io.load_framework(write(tmp_path, "af.json", doc))

    def test_bundled_triangle(self):
        af = io.load_framework(DATA / "triangle.json")
        assert af.n == 3 and af.symmetric and len(af.attacks) == 6


class TestVoteFiles:
    def test_row_as_set(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b,c\np1,1,0,1\n")
        obs, names = io.load_votes(path, io.ObservationConvention())
        assert names == ("a", "b", "c")
        assert obs == [Observation(0b101, 1, 1)]

    def test_identical_rows_merge(self, tmp_path):
        path = write(tmp_path, "v.csv",
                     "participant,a,b\np1,1,0\np2,1,0\n")
        obs, _ = io.load_votes(path, io.ObservationConvention())
        assert obs == [Observation(0b01, 1, 2)]

    def test_cell_as_singleton(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b\np1,1,0\n")
        obs, _ = io.load_votes(
            path, io.ObservationConvention(mode="cell-as-singleton"))
        assert obs == [Observation(0b01, 1), Observation(0b10, 0)]

    def test_missing_cells_skipped(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b\np1,,1\n")
        obs, _ = io.load_votes(
            path, io.ObservationConvention(mode="cell-as-singleton"))
        assert obs == [Observation(0b10, 1)]

    def test_negative_rows_as_label_zero(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b,c\np1,1,0,\n")
        obs, _ = io.load_votes(path, io.ObservationConvention(
            negative_rows="include-as-label-0"))
        assert obs == [Observation(0b001, 1), Observation(0b010, 0)]

    def test_bad_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b\np1,1,x\n")
        with pytest.raises(ParseError, match=r":2: column 3"):
            io.load_votes(path, io.ObservationConvention())

    def test_ragged_row_reports_row(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,b\np1,1\n")
        with pytest.raises(ParseError, match=":2:"):
            io.load_votes(path, io.ObservationConvention())

    def test_duplicate_argument_names(self, tmp_path):
        path = write(tmp_path, "v.csv", "participant,a,a\np1,1,1\n")
        with pytest.raises(SchemaError):
            io.load_votes(path, io.ObservationConvention())

    def test_matrix_round_trip(self, tmp_path):
        matrix = io.load_vote_matrix(DATA / "synthetic_votes.csv")
        assert len(matrix.participants) == 29
        assert len(matrix.arguments) == 10
        out = tmp_path / "copy.csv"
        io.save_votes(out, matrix)
        assert io.load_vote_matrix(out) == matrix

    def test_arbitrary_bytes_do_not_crash(self, tmp_path):
        blob = bytes(range(256)) * 3
        p = tmp_path / "junk.csv"
        p.write_bytes(blob)
        with pytest.raises((SchemaError, UnicodeDecodeError)):
            io.load_votes(p, io.ObservationConvention())


class TestPosteriorFiles:
    def test_round_trip(self, tmp_path):
        post = PosteriorDistribution.from_entries(
            {(0, 0): 0.125, (1, 0): 0.375, (1, 1): 0.5})
        path = tmp_path / "post.csv"
        io.save_posterior(path, post)
        again = io.load_posterior(path)
        assert again.entries == post.entries
        assert sum(again.entries.values()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.sampled_from(("directed", "symmetric")),
           st.sampled_from(SEMANTICS), st.sampled_from(FAMILIES),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), max_size=6))
    def test_exact_posterior_round_trips_bit_exactly(self, tmp_path_factory, n, mode,
                                                      semantics, family, votes):
        space = AttackVariableSpace.create(n, mode=mode, priors=0.3)
        cfg = ModelConfig(semantics=semantics, family=family, w=2.0)
        obs = [Observation(d % (1 << n), label) for d, label in votes]
        try:
            post = exact_posterior(obs, space, cfg)
        except DegenerateEvidenceError:
            return
        path = tmp_path_factory.mktemp("post") / "post.csv"
        io.save_posterior(path, post)
        again = io.load_posterior(path)

        def bits(entries):
            return {att: struct.pack("<d", p) for att, p in entries.items()}
        assert bits(again.entries) == bits(post.entries)
        for e in range(1 << n):
            assert posterior_predictive(e, again, space, cfg) == \
                posterior_predictive(e, post, space, cfg)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "post.csv", "foo,bar\n00,1.0\n")
        with pytest.raises(SchemaError):
            io.load_posterior(p)

    @pytest.mark.parametrize("rows, error, match", [
        ("000,abc\n", ParseError, r"post\.csv:2: probability 'abc' is not a number"),
        ("0,0.5\n0,0.5\n1,0.5\n", ParseError, r"post\.csv:3: assignment 0 repeats"),
        ("", SchemaError, "no assignments"),
        ("0,nan\n1,1.0\n", InputError, "finite"),
        ("0,inf\n1,1.0\n", InputError, "finite"),
    ])
    def test_bad_rows(self, tmp_path, rows, error, match):
        p = write(tmp_path, "post.csv", "assignment,probability\n" + rows)
        with pytest.raises(error, match=match):
            io.load_posterior(p)


class TestConfig:
    def test_defaults(self):
        run = io.parse_config_text("")
        assert run.model.semantics == "complete"
        assert run.model.prediction_family == "linear"
        assert run.priors == 0.5
        assert run.convention.mode == "row-as-set"

    def test_bundled_experiment_preset(self):
        run = io.load_config(DATA / "experiment.cfg")
        assert run.model.semantics == "complete"
        assert run.model.w == 100
        assert run.priors == 0.5
        assert run.gibbs.iterations == 100
        assert run.gibbs.burn_in == 0

    def test_bundled_figure3_preset(self):
        run = io.load_config(DATA / "figure3.cfg")
        assert run.model.w == 2
        assert run.priors == (0.1, 0.15, 0.2)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wobble"):
            io.parse_config_text("wobble = 3")

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="'w'"):
            io.parse_config_text("w = fast")

    def test_invalid_semantics_is_config_error(self):
        with pytest.raises(ConfigError):
            io.parse_config_text("semantics = optimistic")

    def test_invalid_mode_named(self):
        with pytest.raises(ConfigError, match="mode 'sideways'"):
            io.parse_config_text("mode = sideways")

    def test_resolve_overlays_base(self):
        base = io.parse_config_text("w = 100\nseed = 4")
        run = io.resolve_config({"w": "3", "lambda": "0.1,0.2"}, base)
        assert (run.model.w, run.gibbs.seed, run.priors) == (3.0, 4, (0.1, 0.2))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            io.parse_config_text("w = 2\nw = 3")

    def test_comments_and_blanks(self):
        run = io.parse_config_text("# hello\n\nw = 4  # inline\n")
        assert run.model.w == 4.0
