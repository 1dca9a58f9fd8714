"""Satellite catalog ingestion and field-of-view geometry.

Parses standard two-line element (TLE) sets and computes, for a ground
terminal, which satellites are above an elevation mask at a given instant,
with topocentric azimuth / elevation / range.

Propagation is deliberately simple: circular two-body motion (eccentricity
and J2 ignored), with the orbit radius derived from the mean motion via
Kepler's third law and an inertial-to-earth-fixed rotation by the Greenwich
sidereal angle. That keeps every quantity the terminal model needs (who is
overhead, how far away) well inside a few-percent accuracy budget without
dragging in a full perturbation model.

One position formula, `_ecef_km`, serves `propagate` and the terminal
model. It takes an element set's constants (`_orbit`) and an instant as
integer microseconds since the Unix epoch, and divides each integer
difference by 10**6, which is exactly what `timedelta.total_seconds()`
returns; so a caller holding a datetime and one holding integer
milliseconds get the same bits, sub-millisecond epochs included.

`look_angles` computes the geometry of a whole catalog at many instants at
once, and `visible_sats` is its one-instant case. A batch gives every
(instant, satellite) pair the same bits as one instant alone would:

  * same elementwise operations: every element goes through the same
    numpy operations in the same order, whatever the number of instants;
    the time since epoch is taken per instant and distinct epoch, cos/sin
    of the sidereal angle per instant with `math`, and the range is
    `np.linalg.norm` over the last axis of C-ordered (pairs x 3) offsets;
  * only where up >= 0: range, azimuth and elevation are computed only for
    pairs at or above the horizon, and are NaN elsewhere; an elevation
    mask in [0, 90) admits none of those, so no visible satellite changes;
  * one staleness rule: every element set is checked against every instant
    with the rule `propagate` applies.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

MU_EARTH_KM3_S2 = 398600.4418
EARTH_RADIUS_KM = 6378.137
SECONDS_PER_DAY = 86400.0

DEFAULT_ELEVATION_MASK_DEG = 25.0
MAX_EPHEMERIS_AGE_DAYS = 7.0

SHELL_PLANES = 22
SHELL_SATS_PER_PLANE = 20
SHELL_INCLINATION_DEG = 53.0
SHELL_ALTITUDE_KM = 550.0

_J2000 = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_J2000_US = (_J2000 - _UNIX_EPOCH) // _MICROSECOND


class MalformedTle(ValueError):
    """Input does not follow the fixed-column TLE layout."""


class ChecksumMismatch(MalformedTle):
    """A TLE line failed its modulo-10 checksum."""


class StaleEphemeris(ValueError):
    """Requested time is too far from the element-set epoch."""


@dataclass(frozen=True)
class TleRecord:
    name: str
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_per_day: float
    epoch: datetime

    def __post_init__(self):
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(f"inclination out of range: {self.inclination_deg}")
        if self.mean_motion_rev_per_day <= 0.0:
            raise ValueError("mean motion must be positive")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity out of range: {self.eccentricity}")

    @property
    def semi_major_axis_km(self) -> float:
        n = self.mean_motion_rev_per_day * 2.0 * math.pi / SECONDS_PER_DAY
        return (MU_EARTH_KM3_S2 / (n * n)) ** (1.0 / 3.0)

    @property
    def period_s(self) -> float:
        return SECONDS_PER_DAY / self.mean_motion_rev_per_day


@dataclass(frozen=True)
class GroundSite:
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if abs(self.latitude_deg) > 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if abs(self.longitude_deg) > 180.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")

    def ecef_km(self) -> np.ndarray:
        """Site position on a spherical earth (radius 6378.137 km)."""
        r = EARTH_RADIUS_KM + self.altitude_m / 1000.0
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        return np.array([
            r * math.cos(lat) * math.cos(lon),
            r * math.cos(lat) * math.sin(lon),
            r * math.sin(lat),
        ])


@dataclass(frozen=True)
class VisibleSat:
    sat_id: str
    azimuth_deg: float
    elevation_deg: float
    range_km: float


def _tle_checksum(line: str) -> int:
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _parse_epoch(field: str) -> datetime:
    yy = int(field[:2])
    year = 1900 + yy if yy >= 57 else 2000 + yy
    day_of_year = float(field[2:])
    return datetime(year, 1, 1, tzinfo=timezone.utc) + timedelta(days=day_of_year - 1.0)


def parse_tle(text: str) -> TleRecord:
    """Decode one 2-line (or 3-line, name first) element set.

    Raises MalformedTle on layout violations and ChecksumMismatch when a
    line's modulo-10 checksum digit is wrong.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if len(lines) == 3:
        name, line1, line2 = lines[0].strip(), lines[1], lines[2]
    elif len(lines) == 2:
        line1, line2 = lines
        name = ""
    else:
        raise MalformedTle(f"expected 2 or 3 lines, got {len(lines)}")

    if len(line1) < 69 or len(line2) < 69:
        raise MalformedTle("TLE lines must be at least 69 columns")
    if not line1.startswith("1 ") or not line2.startswith("2 "):
        raise MalformedTle("line numbers must be 1 and 2")

    for line in (line1, line2):
        if not line[68].isdigit():
            raise MalformedTle(f"checksum column is not a digit: {line[68]!r}")
        if _tle_checksum(line) != int(line[68]):
            raise ChecksumMismatch(f"checksum failed for line: {line[:20]}...")

    try:
        epoch = _parse_epoch(line1[18:32].strip())
        inclination = float(line2[8:16])
        raan = float(line2[17:25])
        eccentricity = float("0." + line2[26:33].strip())
        arg_perigee = float(line2[34:42])
        mean_anomaly = float(line2[43:51])
        mean_motion = float(line2[52:63])
    except ValueError as exc:
        raise MalformedTle(f"bad numeric field: {exc}") from exc

    if not name:
        name = line1[2:7].strip()
    return TleRecord(
        name=name,
        inclination_deg=inclination,
        raan_deg=raan,
        eccentricity=eccentricity,
        arg_perigee_deg=arg_perigee,
        mean_anomaly_deg=mean_anomaly,
        mean_motion_rev_per_day=mean_motion,
        epoch=epoch,
    )


def load_catalog(text: str) -> list[TleRecord]:
    """Parse a concatenated TLE file (2- or 3-line entries, mixed is fine)."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    records = []
    i = 0
    while i < len(lines):
        if lines[i].startswith("1 "):
            records.append(parse_tle("\n".join(lines[i:i + 2])))
            i += 2
        else:
            records.append(parse_tle("\n".join(lines[i:i + 3])))
            i += 3
    return records


def _unix_us(t: datetime) -> int:
    """Integer microseconds from the Unix epoch to t."""
    return (t - _UNIX_EPOCH) // _MICROSECOND


def _gmst(s_since_j2000: float) -> float:
    du = s_since_j2000 / SECONDS_PER_DAY
    turns = 0.7790572732640 + 1.00273781191135448 * du
    return 2.0 * math.pi * (turns % 1.0)


def gmst_rad(t: datetime) -> float:
    """Greenwich sidereal angle from the earth-rotation-angle polynomial."""
    return _gmst((t - _J2000).total_seconds())


class _Orbit(NamedTuple):
    """The constants of one element set under the circular model: epoch in
    integer microseconds since the Unix epoch, radius (km), mean motion
    (rad/s), argument of latitude at epoch, and cos/sin of inclination and
    RAAN."""

    epoch_us: int
    a: float
    n: float
    u0: float
    cos_inc: float
    sin_inc: float
    cos_raan: float
    sin_raan: float


def _orbit(rec: TleRecord) -> _Orbit:
    inc, raan = math.radians(rec.inclination_deg), math.radians(rec.raan_deg)
    return _Orbit(
        epoch_us=_unix_us(rec.epoch),
        a=rec.semi_major_axis_km,
        n=rec.mean_motion_rev_per_day * 2.0 * math.pi / SECONDS_PER_DAY,
        u0=math.radians(rec.arg_perigee_deg + rec.mean_anomaly_deg),
        cos_inc=math.cos(inc), sin_inc=math.sin(inc),
        cos_raan=math.cos(raan), sin_raan=math.sin(raan),
    )


def _eci_km(o: _Orbit, dt_s: float) -> tuple[float, float, float]:
    u = o.u0 + o.n * dt_s
    cu, su = math.cos(u), math.sin(u)
    return (o.a * (o.cos_raan * cu - o.sin_raan * su * o.cos_inc),
            o.a * (o.sin_raan * cu + o.cos_raan * su * o.cos_inc),
            o.a * (su * o.sin_inc))


def propagate_eci(rec: TleRecord, t: datetime) -> np.ndarray:
    """Inertial position (km) under the circular-orbit model. No staleness guard."""
    return np.array(_eci_km(_orbit(rec), (t - rec.epoch).total_seconds()))


def _check_ephemeris_age(abs_dt_s: float) -> None:
    """Raise StaleEphemeris when |t - epoch|, in seconds, exceeds 7 days; the
    circular model has no drag term, so old element sets quietly drift out
    of tolerance."""
    age_days = abs_dt_s / SECONDS_PER_DAY
    if age_days > MAX_EPHEMERIS_AGE_DAYS:
        raise StaleEphemeris(f"elements are {age_days:.1f} days from epoch (limit {MAX_EPHEMERIS_AGE_DAYS:g})")


def _ecef_km(o: _Orbit, t_us: int) -> np.ndarray:
    """Earth-fixed position (km) at t_us, integer microseconds since the Unix
    epoch: the one position formula behind `propagate` and the terminal
    model. Raises StaleEphemeris when |t - epoch| exceeds 7 days."""
    dt_s = (t_us - o.epoch_us) / 10**6
    _check_ephemeris_age(abs(dt_s))
    x, y, z = _eci_km(o, dt_s)
    theta = _gmst((t_us - _J2000_US) / 10**6)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([x * ct + y * st, -x * st + y * ct, z])


def propagate(rec: TleRecord, t: datetime) -> np.ndarray:
    """Earth-fixed position (km) at time t.

    Raises StaleEphemeris when |t - epoch| exceeds 7 days.
    """
    return _ecef_km(_orbit(rec), _unix_us(t))


def topocentric(site: GroundSite, sat_ecef_km: np.ndarray) -> tuple[float, float, float]:
    """(azimuth_deg, elevation_deg, range_km) of an earth-fixed point from a site.

    Azimuth is measured clockwise from north, in [0, 360).
    """
    lat = math.radians(site.latitude_deg)
    lon = math.radians(site.longitude_deg)
    d = np.asarray(sat_ecef_km, dtype=float) - site.ecef_km()
    east = -d[0] * math.sin(lon) + d[1] * math.cos(lon)
    north = (-d[0] * math.sin(lat) * math.cos(lon)
             - d[1] * math.sin(lat) * math.sin(lon)
             + d[2] * math.cos(lat))
    up = (d[0] * math.cos(lat) * math.cos(lon)
          + d[1] * math.cos(lat) * math.sin(lon)
          + d[2] * math.sin(lat))
    rng = float(np.linalg.norm(d))
    if rng == 0.0:
        raise ValueError("satellite position coincides with the site")
    azimuth = math.degrees(math.atan2(east, north)) % 360.0
    elevation = math.degrees(math.asin(up / rng))
    return azimuth, elevation, rng


class _ElementColumns:
    """The per-record element columns of one catalog, as numpy arrays.

    `records` is a copy of the catalog list the columns were built from;
    `matches` holds only while the catalog holds those very record objects,
    in the same order (records are frozen, so the same object means the
    same elements).
    """

    def __init__(self, catalog: list[TleRecord]):
        self.records = list(catalog)
        self.n_rad = np.array([r.mean_motion_rev_per_day for r in catalog]) * 2.0 * math.pi / SECONDS_PER_DAY
        self.a = (MU_EARTH_KM3_S2 / (self.n_rad * self.n_rad)) ** (1.0 / 3.0)
        self.u0 = np.radians([r.arg_perigee_deg + r.mean_anomaly_deg for r in catalog])
        inc = np.radians([r.inclination_deg for r in catalog])
        raan = np.radians([r.raan_deg for r in catalog])
        self.cos_inc, self.sin_inc = np.cos(inc), np.sin(inc)
        self.cos_raan, self.sin_raan = np.cos(raan), np.sin(raan)
        slot: dict[datetime, int] = {}
        self.epoch_slot = np.array([slot.setdefault(r.epoch, len(slot)) for r in catalog],
                                   dtype=np.intp)
        self.epochs = list(slot)

    def matches(self, catalog: list[TleRecord]) -> bool:
        return (len(catalog) == len(self.records)
                and all(map(operator.is_, catalog, self.records)))


# Columns of the most recently used catalogs, keyed by id(); an entry is
# used only after `matches` confirms the list still holds its records.
_COLUMN_SLOTS = 4
_columns: dict[int, _ElementColumns] = {}
_columns_lock = threading.Lock()


def _element_columns(catalog: list[TleRecord]) -> _ElementColumns:
    with _columns_lock:
        cols = _columns.get(id(catalog))
    if cols is not None and cols.matches(catalog):
        return cols
    cols = _ElementColumns(catalog)
    with _columns_lock:
        _columns.pop(id(catalog), None)
        while len(_columns) >= _COLUMN_SLOTS:
            del _columns[next(iter(_columns))]
        _columns[id(catalog)] = cols
    return cols


def look_angles(site: GroundSite,
                catalog: list[TleRecord],
                times: list[datetime]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(azimuth_deg, elevation_deg, range_km) of every catalog entry from a
    site at every instant, each of shape (len(times), len(catalog)).

    All three are NaN where the satellite is below the horizon (up < 0).
    Raises StaleEphemeris when any element set is more than 7 days from any
    instant. The element columns (mean motion, radius, argument of latitude
    at epoch, cos/sin of inclination and RAAN) are built once per catalog
    and reused for as long as the list holds the same record objects in the
    same order; replacing, adding or removing a record rebuilds them on the
    next call. The time since epoch is taken once per instant and distinct
    epoch.
    """
    c = _element_columns(catalog)
    dt = [[(t - e).total_seconds() for e in c.epochs] for t in times]
    _check_ephemeris_age(max((abs(x) for row in dt for x in row), default=0.0))
    dt = np.array(dt, dtype=float).reshape(len(times), len(c.epochs))
    u = c.u0 + c.n_rad * dt[:, c.epoch_slot]
    cu, su = np.cos(u), np.sin(u)
    x = (c.cos_raan * cu - c.sin_raan * su * c.cos_inc) * c.a
    y = (c.sin_raan * cu + c.cos_raan * su * c.cos_inc) * c.a
    z = su * c.sin_inc * c.a
    theta = [gmst_rad(t) for t in times]
    ct = np.array([math.cos(th) for th in theta])[:, None]
    st = np.array([math.sin(th) for th in theta])[:, None]
    e0, e1, e2 = site.ecef_km()
    d0 = x * ct + y * st - e0
    d1 = -x * st + y * ct - e1
    d2 = z - e2
    lat = math.radians(site.latitude_deg)
    lon = math.radians(site.longitude_deg)
    up = (d0 * math.cos(lat) * math.cos(lon)
          + d1 * math.cos(lat) * math.sin(lon)
          + d2 * math.sin(lat))
    # range and angles only at or above the horizon; no mask admits the rest
    above = (up >= 0.0).ravel().nonzero()[0]
    d = np.empty((len(above), 3))
    for j, dj in enumerate((d0, d1, d2)):
        d[:, j] = dj.ravel()[above]
    d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
    east = -d0 * math.sin(lon) + d1 * math.cos(lon)
    north = (-d0 * math.sin(lat) * math.cos(lon)
             - d1 * math.sin(lat) * math.sin(lon)
             + d2 * math.cos(lat))
    rng = np.linalg.norm(d, axis=-1)
    azimuth, elevation, range_km = np.full((3, up.size), np.nan)
    range_km[above] = rng
    elevation[above] = np.degrees(np.arcsin(np.clip(up.ravel()[above] / rng, -1.0, 1.0)))
    azimuth[above] = np.degrees(np.arctan2(east, north)) % 360.0
    return (azimuth.reshape(up.shape), elevation.reshape(up.shape),
            range_km.reshape(up.shape))


def visible_sats(site: GroundSite,
                 catalog: list[TleRecord],
                 t: datetime,
                 mask_deg: float = DEFAULT_ELEVATION_MASK_DEG) -> list[VisibleSat]:
    """Every satellite at or above the elevation mask, highest elevation
    first, ties by name: the one-instant case of `look_angles`."""
    if not 0.0 <= mask_deg < 90.0:
        raise ValueError(f"mask must be in [0, 90): {mask_deg}")
    azimuth, elevation, rng = (a[0] for a in look_angles(site, catalog, [t]))
    out = [
        VisibleSat(catalog[i].name, float(azimuth[i]), float(elevation[i]), float(rng[i]))
        for i in np.nonzero(elevation >= mask_deg)[0]
    ]
    out.sort(key=lambda v: (-v.elevation_deg, v.sat_id))
    return out


def synthetic_constellation(epoch: datetime | None = None,
                            phase_offset_deg: float = 5.0) -> list[TleRecord]:
    """A Walker-style shell of circular orbits, as TleRecords.

    Stands in for a public catalog in tests and default configs; mean motion
    follows from the altitude so the records propagate like any parsed TLE.
    """
    if epoch is None:
        epoch = datetime(2026, 1, 1, tzinfo=timezone.utc)
    a = EARTH_RADIUS_KM + SHELL_ALTITUDE_KM
    n_rad = math.sqrt(MU_EARTH_KM3_S2 / a ** 3)
    mean_motion = n_rad * SECONDS_PER_DAY / (2.0 * math.pi)
    catalog = []
    for p in range(SHELL_PLANES):
        raan = 360.0 * p / SHELL_PLANES
        for s in range(SHELL_SATS_PER_PLANE):
            anomaly = (360.0 * s / SHELL_SATS_PER_PLANE + phase_offset_deg * p) % 360.0
            catalog.append(TleRecord(
                name=f"SHELL-{p:02d}-{s:02d}",
                inclination_deg=SHELL_INCLINATION_DEG,
                raan_deg=raan,
                eccentricity=0.0,
                arg_perigee_deg=0.0,
                mean_anomaly_deg=anomaly,
                mean_motion_rev_per_day=mean_motion,
                epoch=epoch,
            ))
    return catalog
