"""File formats: framework JSON, vote CSV, flat config, and report CSVs.

Framework files are JSON objects with ``arguments`` (unique strings) and
``attacks`` (pairs of argument names); ``"symmetric": true`` stores each
unordered pair once. Vote files mirror a sentiment matrix: header row of
argument names after a participant-id column, cells 1 / 0 / empty.
Config files are flat ``key = value`` lines with ``#`` comments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .af import ArgumentationFramework, mask_of
from .errors import ArgBayesError, ConfigError, InputError, ParseError, SchemaError
from .gibbs import GibbsConfig
from .inference import Observation, PosteriorDistribution, merge_observations
from .model import ModelConfig

CONVENTION_MODES = ("row-as-set", "cell-as-singleton")
NEGATIVE_ROW_MODES = ("ignore", "include-as-label-0")


@dataclass(frozen=True)
class ObservationConvention:
    """How a vote matrix maps to acceptability observations.

    row-as-set: one label-1 observation per participant, the set of agreed
    arguments. cell-as-singleton: one observation per non-missing cell.
    ``negative_rows`` controls whether disagree cells additionally produce
    label-0 singleton observations in row-as-set mode.
    """

    mode: str = "row-as-set"
    negative_rows: str = "ignore"

    def __post_init__(self):
        if self.mode not in CONVENTION_MODES:
            raise ConfigError(f"unknown convention mode {self.mode!r}")
        if self.negative_rows not in NEGATIVE_ROW_MODES:
            raise ConfigError(f"unknown negative-row mode {self.negative_rows!r}")


@dataclass(frozen=True)
class VoteMatrix:
    participants: tuple[str, ...]
    arguments: tuple[str, ...]
    cells: tuple[tuple[int | None, ...], ...]  # 1 agree, 0 disagree, None missing


def load_vote_matrix(path: str | Path) -> VoteMatrix:
    path = Path(path)
    try:
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    if not rows or len(rows[0]) < 2:
        raise SchemaError(f"{path}: expected a header row with argument names")
    arguments = tuple(name.strip() for name in rows[0][1:])
    if len(set(arguments)) != len(arguments) or any(not a for a in arguments):
        raise SchemaError(f"{path}: argument names must be unique and nonempty")
    participants = []
    cells = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(arguments) + 1:
            raise ParseError(f"{path}:{r}: expected {len(arguments) + 1} columns, got {len(row)}")
        participants.append(row[0].strip())
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            cell = cell.strip()
            if cell == "":
                parsed.append(None)
            elif cell in ("0", "1"):
                parsed.append(int(cell))
            else:
                raise ParseError(f"{path}:{r}: column {c}: cell must be 1, 0 or empty, got {cell!r}")
        cells.append(tuple(parsed))
    if len(set(participants)) != len(participants):
        raise SchemaError(f"{path}: participant identifiers must be unique")
    return VoteMatrix(tuple(participants), arguments, tuple(cells))


def observations_from_matrix(matrix: VoteMatrix,
                             convention: ObservationConvention) -> list[Observation]:
    obs: list[Observation] = []
    for row in matrix.cells:
        if convention.mode == "row-as-set":
            agreed = mask_of(i for i, v in enumerate(row) if v == 1)
            obs.append(Observation(agreed, 1))
            if convention.negative_rows == "include-as-label-0":
                for i, v in enumerate(row):
                    if v == 0:
                        obs.append(Observation(1 << i, 0))
        else:
            for i, v in enumerate(row):
                if v is not None:
                    obs.append(Observation(1 << i, v))
    return merge_observations(obs)


def load_votes(path: str | Path,
               convention: ObservationConvention) -> tuple[list[Observation], tuple[str, ...]]:
    """Observations plus the argument-name order defining the bit layout."""
    matrix = load_vote_matrix(path)
    return observations_from_matrix(matrix, convention), matrix.arguments


def save_votes(path: str | Path, matrix: VoteMatrix) -> None:
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["participant", *matrix.arguments])
        for pid, row in zip(matrix.participants, matrix.cells):
            writer.writerow([pid, *("" if v is None else str(v) for v in row)])


def load_framework(path: str | Path) -> ArgumentationFramework:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"arguments", "attacks", "symmetric"}
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    args = doc.get("arguments")
    if not isinstance(args, list) or not args or not all(isinstance(a, str) for a in args):
        raise SchemaError(f"{path}: 'arguments' must be a nonempty array of strings")
    if len(set(args)) != len(args):
        raise SchemaError(f"{path}: argument names must be unique")
    index = {a: i for i, a in enumerate(args)}
    attacks_doc = doc.get("attacks", [])
    if not isinstance(attacks_doc, list):
        raise SchemaError(f"{path}: 'attacks' must be an array")
    symmetric = doc.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise SchemaError(f"{path}: 'symmetric' must be a boolean")
    pairs = []
    for k, pair in enumerate(attacks_doc):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{path}: attack #{k} must be a 2-element array")
        for name in pair:
            if name not in index:
                raise SchemaError(f"{path}: attack #{k} names unknown argument {name!r}")
        pairs.append((index[pair[0]], index[pair[1]]))
    return ArgumentationFramework.from_pairs(
        n=len(args), pairs=pairs, names=tuple(args), symmetric=symmetric)


def save_framework(path: str | Path, af: ArgumentationFramework) -> None:
    names = af.names or tuple(f"a{i}" for i in range(af.n))
    if af.symmetric:
        pairs = sorted({(min(a, b), max(a, b)) for (a, b) in af.attacks})
    else:
        pairs = sorted(af.attacks)
    doc = {
        "arguments": list(names),
        "attacks": [[names[a], names[b]] for (a, b) in pairs],
        "symmetric": af.symmetric,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _bitstring(att: tuple[int, ...]) -> str:
    return "".join(str(b) for b in att)


def save_posterior(path: str | Path, post: PosteriorDistribution) -> None:
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["assignment", "probability"])
        for att in sorted(post.entries):
            writer.writerow([_bitstring(att), repr(post.entries[att])])


def load_posterior(path: str | Path, kind: str = "exact") -> PosteriorDistribution:
    path = Path(path)
    try:
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    if not rows or rows[0] != ["assignment", "probability"]:
        raise SchemaError(f"{path}: expected header 'assignment,probability'")
    entries = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 2 or not all(ch in "01" for ch in row[0]):
            raise ParseError(f"{path}:{r}: malformed posterior row")
        att = tuple(int(ch) for ch in row[0])
        if att in entries:
            raise ParseError(f"{path}:{r}: assignment {row[0]} repeats an earlier row")
        try:
            entries[att] = float(row[1])
        except ValueError:
            raise ParseError(f"{path}:{r}: probability {row[1]!r} is not a number") from None
    if not entries:
        raise SchemaError(f"{path}: no assignments")
    return PosteriorDistribution.from_entries(entries, kind)


def save_table(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Generic CSV report: stable column order, repr-based float formatting."""
    with Path(path).open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# Flat key=value run configuration

SPACE_MODES = ("symmetric", "directed")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    gibbs: GibbsConfig = GibbsConfig()
    priors: float | tuple[float, ...] = 0.5
    mode: str = "symmetric"
    convention: ObservationConvention = ObservationConvention()

    def __post_init__(self):
        if self.mode not in SPACE_MODES:
            raise ConfigError(f"unknown variable-space mode {self.mode!r}")


def _priors(text: str) -> float | tuple[float, ...]:
    """The 'lambda' prior: one value, or a comma list with one per variable."""
    return tuple(float(x) for x in text.split(",")) if "," in text else float(text)


#: Config key -> (RunConfig part, or None for a field of RunConfig itself,
#: field, parser of the key's text).
CONFIG_KEYS = {
    "semantics": ("model", "semantics", str),
    "family": ("model", "family", str),
    "w": ("model", "w", float),
    "prediction_family": ("model", "prediction_family", str),
    "lambda": (None, "priors", _priors),
    "mode": (None, "mode", str),
    "iterations": ("gibbs", "iterations", int),
    "burn_in": ("gibbs", "burn_in", int),
    "seed": ("gibbs", "seed", int),
    "chains": ("gibbs", "chains", int),
    "convention": ("convention", "mode", str),
    "negative_rows": ("convention", "negative_rows", str),
}


def resolve_config(values: dict[str, str], base: RunConfig = RunConfig()) -> RunConfig:
    """``base`` with the field of each config key replaced by its parsed
    value. A value that does not parse is a ConfigError naming its key; the
    constructors of the config dataclasses check the rest."""
    fields: dict[str | None, dict] = {}
    for key, text in values.items():
        part, name, parse = CONFIG_KEYS[key]
        try:
            fields.setdefault(part, {})[name] = parse(text)
        except ValueError as e:
            raise ConfigError(f"invalid value for {key!r}: {text!r}") from e
    top = fields.pop(None, {})
    for part, changes in fields.items():
        top[part] = replace(getattr(base, part), **changes)
    return replace(base, **top)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    try:
        return resolve_config(values)
    except ArgBayesError as e:
        raise ConfigError(f"{source}: {e}") from e


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    return parse_config_text(text, source=str(path))
