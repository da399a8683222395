"""Panel CSV ingestion, run configuration, and report serialization.

PanelFile schema: UTF-8, LF or CRLF line endings, comma separated, `.`
decimal separator.  Header row holds asset labels (at most one tagged
`#cash`); data rows hold an unquoted ISO-8601 date followed by one positive
decimal price per asset.  Dates map onto a uniform grid in year fractions
(365.25-day year).

A price is a number as ``np.loadtxt`` reads it: ASCII digits with an
optional sign, decimal point and exponent (``7``, ``+2.5``, ``.5``,
``1E2``), optionally padded by spaces or tabs and optionally in double
quotes.  Underscores (``1_000``), non-ASCII digits and hex are not numbers;
``nan`` and ``inf`` parse but are not positive finite prices.
``export_panel`` writes each price as ``repr(float)``, which reads back bit
for bit.  A bad file raises PanelFormatError naming its first bad field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import secrets
import sys
import warnings
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, TextIO

import numpy as np
import yaml

from . import __version__
from .catalog import FAMILIES
from .gauge import PricePanel
from .grid import TimeGrid
from .sim import NOISE_TAGS, SEED_LIMIT

DAYS_PER_YEAR = 365.25

#: The date export_panel gives grid point 0.
EXPORT_START = date(2005, 7, 1)


class PanelFormatError(ValueError):
    """Malformed panel file; message carries row/column coordinates."""


def ingest(path: str | Path, normalize: bool = False) -> PricePanel:
    """Read a PanelFile CSV into a PricePanel.

    ``normalize`` rescales every column to price 1 at inception (the scaling
    freedom of the price gauge).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        header = [h.strip() for h in next(csv.reader(handle), [])]
        lines = [line.rstrip("\r\n") for line in handle]
    if len(lines) < 2:
        raise PanelFormatError(f"{path}: need a header and at least two data rows")
    labels = header[1:]
    if not labels:
        raise PanelFormatError(f"{path}: header must list a date column and at least one asset")
    if sum(l.endswith("#cash") for l in labels) > 1:
        raise PanelFormatError(f"{path}: at most one column may carry the #cash tag")
    dates: list[date] = []
    for r, line in enumerate(lines, start=1):
        cell = line.partition(",")[0]
        try:
            day = date.fromisoformat(cell.strip())
        except ValueError as exc:
            raise PanelFormatError(f"{path}: row {r}: bad date {cell!r}: {exc}") from None
        if dates and day <= dates[-1]:
            raise PanelFormatError(
                f"{path}: row {r}: date {day.isoformat()} not after the previous row"
            )
        dates.append(day)
    prices = _floats((line.partition(",")[2] for line in lines), (len(lines), len(labels)))
    # loadtxt closes a quote left open at the end of its input, so an odd
    # quote count in the last row is checked here
    if prices is None or not _positive(prices) or lines[-1].count('"') % 2:
        raise _first_bad_field(path, labels, lines)
    if normalize:
        prices /= prices[0]
    span_years = (dates[-1] - dates[0]).days / DAYS_PER_YEAR
    steps = len(dates) - 1
    grid = TimeGrid(dt=span_years / steps, steps=steps)
    return PricePanel(grid=grid, prices=prices, asset_ids=tuple(labels))


def _floats(lines: Iterable[str], shape: tuple[int, int]) -> Optional[np.ndarray]:
    """Comma-separated numbers, a row per line, as an array of ``shape``; None
    if a cell is not a number or the numbers do not fill ``shape``."""
    try:
        with warnings.catch_warnings():
            # a blank input warns "no data"; loadtxt skips blank lines, so they show as missing rows
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return values if values.shape == shape else None


def _positive(values: np.ndarray) -> bool:
    return values.min() > 0 and values.max() < np.inf  # NaN fails both


def _first_bad_field(path: Path, labels: list[str], lines: list[str]) -> PanelFormatError:
    """The error for the first row :func:`_floats` rejects, at its first bad cell."""
    n = len(labels)
    for r, line in enumerate(lines, start=1):
        row = _floats([line.partition(",")[2]], (1, n))
        if row is not None and _positive(row):
            continue
        fields = next(csv.reader([line]), [])
        if len(fields) != n + 1:
            return PanelFormatError(f"{path}: ragged row {r}: expected {n + 1} fields, got {len(fields)}")
        for label, cell in zip(labels, fields[1:]):
            value = _floats([cell], (1, 1))
            if value is None:
                return PanelFormatError(f"{path}: row {r}, column {label!r}: not a number: {cell!r}")
            if not _positive(value):
                return PanelFormatError(f"{path}: row {r}, column {label!r}: nonpositive price {cell!r}")
    # every row parses alone, so the block failed on a quote left open at a line end
    return PanelFormatError(f"{path}: a quoted price runs past the end of its row")


def export_panel(panel: PricePanel, path: str | Path) -> None:
    """Write a PricePanel to the PanelFile CSV schema; ValueError if two grid points share a day."""
    if panel.asset_ids is None:
        raise ValueError("panel must carry asset labels to export")
    days = [EXPORT_START + timedelta(days=round(t * DAYS_PER_YEAR)) for t in panel.grid.points().tolist()]
    for k in range(1, len(days)):
        if days[k] == days[k - 1]:
            raise ValueError(f"grid points {k - 1} and {k} both fall on {days[k]} (dt {panel.grid.dt} years)")
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", *panel.asset_ids])
        for day, row in zip(days, panel.prices):
            writer.writerow([day.isoformat(), *(repr(float(p)) for p in row)])


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_DEFAULT_CONFIG: dict[str, dict[str, Any]] = {
    "simulate": {
        "n_assets": 8,
        "n_paths": 1000,
        "seed": 1,
        "horizon": 1.0,
        "dt": 1.0 / 64,
        "noise": "normal",
        "process": "constant",
        "process_params": {"mu": 0.05, "sigma": 0.2},
        "xi": 0.0,
    },
    "riskfree": {
        "sizes": [16, 64, 256, 1024],
        "n_paths": 2000,
    },
    "pde": {
        "n_s": 400,
        "n_t": 400,
        "strike": 100.0,
        "payoff": "call",
        "sigma": 0.2,
        "tau": 1.0,
        "a": 0.0,
        "b": 0.0,
    },
    "discount": {"window": 63},
    "sensitivity": {"n_assets": 64, "n_factors": 3, "cap_c": 4.0, "seed": 7},
}


@dataclass(frozen=True)
class RunConfig:
    """Validated key-value configuration with per-command sections."""

    data: dict[str, dict[str, Any]] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, Any]:
        merged = dict(_DEFAULT_CONFIG.get(name, {}))
        merged.update(self.data.get(name, {}))
        return merged

    def effective(self) -> dict[str, dict[str, Any]]:
        """Every section as the commands run it: the defaults under the
        user's values, float keys as floats, and ``process_params`` as the
        chosen family's parameters, each the given value or its default."""
        config = {name: self.section(name) for name in _DEFAULT_CONFIG}
        for name, section in config.items():
            for key, value in section.items():
                if type(_DEFAULT_CONFIG[name][key]) is float:
                    section[key] = float(value)
        sim = config["simulate"]
        family = FAMILIES[sim["process"]][0]
        params = {key: sim["process_params"].get(key, default) for key, default in family.items()}
        sim["process_params"] = {
            key: [float(v) for v in value] if type(value) is list else float(value)
            for key, value in params.items()
        }
        return config

    def sha256(self) -> str:
        """SHA-256 of the effective config, so restating a default keeps the hash."""
        return hashlib.sha256(
            json.dumps(self.effective(), sort_keys=True, default=str).encode()
        ).hexdigest()


#: Each key takes values of its default's type: an integer key rejects floats
#: and bools, a float key takes any finite number.  ``process_params`` is a
#: mapping checked against the chosen family in ``catalog.FAMILIES``.
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list", lambda v: type(v) is list),
    dict: ("a mapping", lambda v: type(v) is dict),
}


def load_config(path: Optional[str | Path]) -> RunConfig:
    """Load and validate a YAML RunConfig; a missing path or an empty file means all defaults.

    Raises ValueError with a one-line message for malformed YAML, unknown
    sections or keys, values of the wrong type and out-of-range values.
    """
    if path is None:
        return RunConfig({})
    try:
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ValueError(f"invalid config: {path} is not valid YAML{where}: {problem}") from None
    raw = {} if raw is None else raw
    _require(isinstance(raw, dict), "config must be a mapping of sections")
    unknown = set(raw) - set(_DEFAULT_CONFIG)
    _require(not unknown, f"unknown config sections: {sorted(unknown, key=str)}")
    for name, section in raw.items():
        _require(isinstance(section, dict), f"section {name} must be a mapping of keys")
        unknown = set(section) - set(_DEFAULT_CONFIG[name])
        _require(not unknown, f"unknown keys in section {name}: {sorted(unknown, key=str)}")
        for key, value in section.items():
            kind, accepts = _KINDS[type(_DEFAULT_CONFIG[name][key])]
            _require(accepts(value), f"{name}.{key} must be {kind}, got {value!r}")
    config = RunConfig(raw)
    _validate(config)
    return config


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid config: {message}")


def _validate(config: RunConfig) -> None:
    sim = config.section("simulate")
    _require(sim["process"] in FAMILIES, f"unknown process {sim['process']!r}")
    # the user's process_params only (the defaults belong to the default family):
    # the family's names, each a finite number or, if allowed, a nonempty list of them
    params = config.data.get("simulate", {}).get("process_params", {})
    names, lists = FAMILIES[sim["process"]]
    unknown = sorted(set(params) - set(names), key=str)
    _require(not unknown, f"unknown process_params for process {sim['process']}: {unknown}")
    number = _KINDS[float][1]
    kind = "a finite number or a nonempty list of them" if lists else "a finite number"
    for key, value in params.items():
        _require(
            number(value) or (lists and type(value) is list and value and all(map(number, value))),
            f"simulate.process_params.{key} must be {kind}, got {value!r}",
        )
    # constant and sector-block take sigma as given; affine clips its sigma at 0
    for key in set(params) & {"sigma", "sigma_sectors"}:
        value = params[key]
        _require(
            min(value if type(value) is list else [value]) >= 0,
            f"simulate.process_params.{key} must be >= 0, got {value!r}",
        )
    if sim["process"] == "sector-block":
        mus, sigmas = ({**names, **params}[k] for k in ("mu_sectors", "sigma_sectors"))
        counts = [len(v) if type(v) is list else 1 for v in (mus, sigmas)]
        _require(
            counts[0] == counts[1],
            "simulate.process_params.mu_sectors and sigma_sectors must have equal length, "
            f"got {counts[0]} and {counts[1]}",
        )
    _require(sim["n_assets"] >= 1, "simulate.n_assets must be >= 1")
    _require(sim["n_paths"] >= 1, "simulate.n_paths must be >= 1")
    _require(sim["horizon"] > 0, "simulate.horizon must be positive")
    _require(sim["dt"] > 0, "simulate.dt must be positive")
    steps = sim["horizon"] / sim["dt"]
    _require(
        steps < math.inf and round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps,
        f"simulate.horizon {sim['horizon']!r} is not a whole number of dt = {sim['dt']!r} steps",
    )
    _require(sim["noise"] in NOISE_TAGS, f"unknown noise {sim['noise']!r}")
    rf = config.section("riskfree")
    sizes = rf["sizes"]
    _require(
        isinstance(sizes, list) and len(sizes) >= 4
        and all(type(n) is int and n >= 1 for n in sizes)
        and all(b > a for a, b in zip(sizes, sizes[1:])),
        "riskfree.sizes must be at least 4 strictly increasing positive integers",
    )
    _require(rf["n_paths"] >= 1, "riskfree.n_paths must be >= 1")
    pde = config.section("pde")
    _require(pde["payoff"] in ("call", "put"), f"unknown payoff {pde['payoff']!r}")
    _require(pde["strike"] > 0, "pde.strike must be positive")
    _require(pde["n_s"] >= 10 and pde["n_t"] >= 2, "pde grid too coarse")
    _require(pde["n_s"] % 2 == 0, "pde.n_s must be even so the strike is a grid node")
    _require(pde["tau"] > 0, "pde.tau must be positive")
    _require(pde["sigma"] >= 0, "pde.sigma must be nonnegative")
    disc = config.section("discount")
    _require(disc["window"] >= 2, "discount.window must be >= 2")
    sens = config.section("sensitivity")
    _require(
        0 < sens["n_factors"] < sens["n_assets"], "sensitivity needs 0 < n_factors < n_assets"
    )
    # cap_c / n_assets caps each weight, so n_assets weights reach 1 only when cap_c >= 1
    _require(sens["cap_c"] >= 1, f"sensitivity.cap_c must be >= 1, got {sens['cap_c']!r}")
    for name, seed in (("simulate", sim["seed"]), ("sensitivity", sens["seed"])):
        _require(0 <= seed < SEED_LIMIT, f"{name}.seed must be in [0, 2^63), got {seed}")


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

#: What opens a YAML block line before its key or scalar: indentation, "- "
#: of a sequence item and ": " of a long key's value (after "? key").
_LEAD = re.compile(r"(?:  |- |: )*")


def _float_text(x: float) -> str:
    """A float as PyYAML's SafeRepresenter writes it."""
    if x != x:
        return ".nan"
    if x in (math.inf, -math.inf):
        return ".inf" if x > 0 else "-.inf"
    text = repr(x).lower()
    # the !!float pattern needs a dot: 1e+16 -> 1.0e+16
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


def _write_block(out: TextIO, array: np.ndarray, first: str, col: int) -> None:
    """Write a float array as a YAML block sequence: the first item's "- "
    after ``first``, every other item at column ``col``, one row at a time."""
    if array.ndim > 1:
        for k, row in enumerate(array):
            _write_block(out, row, (first if k == 0 else " " * col) + "- ", col + 2)
        return
    item = "\n" + " " * col + "- "
    out.write(first + "- " + item.join(map(_float_text, array.tolist())) + "\n")


def _plain(value: Any, tag: str, arrays: list[np.ndarray]) -> Any:
    """``value`` with numpy values as plain Python ones, except that each
    nonempty float array is appended to ``arrays`` and stands as the
    placeholder ``tag`` + its index."""
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.size == 0 or value.ndim == 0:
            return value.tolist()
        arrays.append(value)
        return f"{tag}{len(arrays) - 1}"
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, Mapping):
        return {k: _plain(v, tag, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, tag, arrays) for v in value]
    return value


def write_report(
    path: str | Path,
    command: str,
    body: Mapping[str, Any],
    config: RunConfig,
    seed: Optional[int] = None,
    timestamp: bool = True,
) -> None:
    """Serialize a report with its mandatory provenance block.

    ``timestamp=False`` selects the canonical form used for determinism
    comparisons.  The file holds the bytes of ``yaml.dump(document,
    sort_keys=True, default_flow_style=False)`` with numpy values as plain
    Python ones, but float arrays never become lists: ``yaml.dump`` writes
    the document with a placeholder in each array's place, and each array
    is then written as text where its placeholder stood.
    """
    provenance: dict[str, Any] = {
        "command": command,
        "config_sha256": config.sha256(),
        "seed": seed,
        "version": __version__,
    }
    if timestamp:
        provenance["generated_at"] = datetime.now().isoformat(timespec="seconds")
    # a random tag, so no string in the body can be mistaken for a placeholder
    tag = f"gaugeport-array-{secrets.token_hex(16)}-"
    arrays: list[np.ndarray] = []
    document = {"provenance": provenance, "report": _plain(body, tag, arrays)}
    # libyaml's emitter when PyYAML was built with it: same bytes, ~4x faster
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    skeleton = yaml.dump(document, Dumper=dumper, sort_keys=True, default_flow_style=False)
    with Path(path).open("w", encoding="utf-8") as out:
        done = 0
        at = skeleton.find(tag)
        while at >= 0:
            end = skeleton.index("\n", at)
            start = skeleton.rfind("\n", 0, at) + 1
            before = skeleton[start:at]
            lead = _LEAD.match(before).group()
            if before == lead:
                # a sequence item or a long key's value: the array starts on
                # the placeholder's line
                out.write(skeleton[done:start])
                first, col = before, len(before)
            else:
                # "key: placeholder": the array starts on the next line, at
                # the key's column
                out.write(skeleton[done : at - 1] + "\n")
                first, col = " " * len(lead), len(lead)
            _write_block(out, arrays[int(skeleton[at + len(tag) : end])], first, col)
            done = end + 1
            at = skeleton.find(tag, done)
        out.write(skeleton[done:])


def read_report(path: str | Path) -> dict:
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    document = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
    if not isinstance(document, dict) or "provenance" not in document or "report" not in document:
        raise ValueError("report file is missing its provenance block")
    return document
