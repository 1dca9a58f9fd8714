import dataclasses
import hashlib
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from leobench.orbital import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    ChecksumMismatch,
    GroundSite,
    MalformedTle,
    StaleEphemeris,
    TleRecord,
    gmst_rad,
    load_catalog,
    look_angles,
    parse_tle,
    propagate,
    propagate_eci,
    synthetic_constellation,
    topocentric,
    visible_sats,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_lines():
    text = (FIXTURES / "catalog.tle").read_text()
    return [ln for ln in text.splitlines() if ln.strip()]


# --- parsing -------------------------------------------------------------

def oracle_parse(line1, line2):
    """Independent column-slicing decode, written against the published
    TLE column layout rather than the implementation."""
    yy = int(line1[18:20])
    year = 1900 + yy if yy >= 57 else 2000 + yy
    doy = float(line1[20:32])
    epoch = datetime(year, 1, 1, tzinfo=timezone.utc) + timedelta(days=doy - 1.0)
    return {
        "epoch": epoch,
        "inclination_deg": float(line2[8:16]),
        "raan_deg": float(line2[17:25]),
        "eccentricity": float("0." + line2[26:33].strip()),
        "arg_perigee_deg": float(line2[34:42]),
        "mean_anomaly_deg": float(line2[43:51]),
        "mean_motion_rev_per_day": float(line2[52:63]),
    }


def test_parse_matches_column_oracle():
    lines = fixture_lines()
    for base in (0, 3):  # two 3-line entries in the fixture
        name, l1, l2 = lines[base], lines[base + 1], lines[base + 2]
        rec = parse_tle("\n".join([name, l1, l2]))
        want = oracle_parse(l1, l2)
        assert rec.name == name
        assert rec.epoch == want["epoch"]
        for field in ("inclination_deg", "raan_deg", "eccentricity",
                      "arg_perigee_deg", "mean_anomaly_deg",
                      "mean_motion_rev_per_day"):
            assert getattr(rec, field) == want[field], field


def test_parse_two_line_form():
    lines = fixture_lines()
    rec = parse_tle("\n".join(lines[1:3]))
    assert rec.mean_motion_rev_per_day == pytest.approx(15.063915)
    assert rec.name == "44238"  # falls back to the catalog number


def test_load_catalog_reads_all_entries():
    catalog = load_catalog((FIXTURES / "catalog.tle").read_text())
    assert [r.name for r in catalog] == ["STARLINK-1437", "STARLINK-2099"]


def test_checksum_rejects_corruption():
    lines = fixture_lines()
    l1, l2 = lines[1], lines[2]
    # flip one digit in the inclination field; checksum must catch it
    bad = l2[:10] + ("4" if l2[10] != "4" else "5") + l2[11:]
    with pytest.raises(ChecksumMismatch):
        parse_tle(l1 + "\n" + bad)


def test_checksum_counts_minus_as_one():
    # replace a '0' with '-': digit sum drops by 0 but '-' adds 1,
    # so a correct parser must flag the stored checksum as stale.
    lines = fixture_lines()
    l1, l2 = lines[1], lines[2]
    idx = l1.index("0", 20)
    mutated = l1[:idx] + "-" + l1[idx + 1:]
    with pytest.raises(ChecksumMismatch):
        parse_tle(mutated + "\n" + l2)


def test_malformed_inputs():
    lines = fixture_lines()
    with pytest.raises(MalformedTle):
        parse_tle("just one line")
    with pytest.raises(MalformedTle):
        parse_tle(lines[1][:50] + "\n" + lines[2])  # truncated
    with pytest.raises(MalformedTle):
        parse_tle("3 " + lines[1][2:] + "\n" + lines[2])  # bad line number


def test_record_validation():
    epoch = datetime(2026, 1, 10, tzinfo=timezone.utc)
    with pytest.raises(ValueError):
        TleRecord("X", 181.0, 0, 0, 0, 0, 15.0, epoch)
    with pytest.raises(ValueError):
        TleRecord("X", 53.0, 0, 0, 0, 0, -1.0, epoch)
    with pytest.raises(ValueError):
        TleRecord("X", 53.0, 0, 1.5, 0, 0, 15.0, epoch)


# --- propagation ---------------------------------------------------------

def shell_record(mean_anomaly=0.0, raan=0.0, altitude_km=550.0):
    a = EARTH_RADIUS_KM + altitude_km
    n = math.sqrt(MU_EARTH_KM3_S2 / a ** 3) * 86400.0 / (2 * math.pi)
    return TleRecord("T", 53.0, raan, 0.0, 0.0, mean_anomaly, n,
                     datetime(2026, 1, 10, tzinfo=timezone.utc))


def test_orbit_radius_and_period():
    rec = shell_record()
    # 550 km circular shell: ~95.6 min period, ~7.6 km/s speed
    assert rec.semi_major_axis_km == pytest.approx(EARTH_RADIUS_KM + 550.0, abs=1e-6)
    assert rec.period_s / 60.0 == pytest.approx(95.6, abs=0.3)
    p0 = propagate_eci(rec, rec.epoch)
    p1 = propagate_eci(rec, rec.epoch + timedelta(seconds=1))
    assert np.linalg.norm(p1 - p0) == pytest.approx(7.59, abs=0.05)


def test_inertial_position_returns_after_one_period():
    rec = shell_record(mean_anomaly=37.0, raan=120.0)
    t0 = rec.epoch + timedelta(hours=3)
    t1 = t0 + timedelta(seconds=rec.period_s)
    assert np.allclose(propagate_eci(rec, t0), propagate_eci(rec, t1), atol=1e-6)


def test_radius_is_constant_along_track():
    rec = shell_record(mean_anomaly=200.0)
    rng = np.random.default_rng(7)
    for dt in rng.uniform(-3600, 3600, size=20):
        pos = propagate(rec, rec.epoch + timedelta(seconds=float(dt)))
        assert np.linalg.norm(pos) == pytest.approx(rec.semi_major_axis_km, rel=1e-12)


def test_earth_fixed_frame_rotates_under_satellite():
    # a satellite fixed inertially would sweep westward in longitude at
    # ~360.98 deg/day; check the frame rotation has the right rate and sign
    rec = shell_record()
    t0 = rec.epoch
    day = timedelta(days=1)
    eci0, eci1 = propagate_eci(rec, t0), propagate_eci(rec, t0 + day)
    # same inertial geometry one sidereal-ish day later
    ecef0, ecef1 = propagate(rec, t0), propagate(rec, t0 + day)
    lon0 = math.degrees(math.atan2(ecef0[1], ecef0[0]))
    lon1 = math.degrees(math.atan2(ecef1[1], ecef1[0]))
    # mean motion chosen from altitude is not an integer rev/day, so just
    # confirm the two frames disagree by the sidereal offset, not a flip
    assert not np.allclose(eci1, ecef1)
    assert abs(lon0) <= 180 and abs(lon1) <= 180


def test_stale_ephemeris_guard():
    rec = shell_record()
    with pytest.raises(StaleEphemeris):
        propagate(rec, rec.epoch + timedelta(days=8))
    with pytest.raises(StaleEphemeris):
        propagate(rec, rec.epoch - timedelta(days=7.5))
    propagate(rec, rec.epoch + timedelta(days=6.9))  # inside the window


def test_one_stale_ephemeris_rule_for_every_geometry_path():
    """Exactly 7 days from an epoch passes and 7 days plus 1 s raises, for
    one record, for visible_sats, and for a batch in which only one of two
    epochs, or only one instant, is out of range."""
    site = GroundSite(47.6, -122.3)
    rec = shell_record()
    catalog = _two_epoch_catalog()
    early, late = catalog[0].epoch, catalog[-1].epoch
    limit, past = timedelta(days=7), timedelta(days=7, seconds=1)
    for edge in (limit, -limit):
        propagate(rec, rec.epoch + edge)
        visible_sats(site, [rec], rec.epoch + edge)
    look_angles(site, catalog, [late - limit, early + limit])
    for stale in (rec.epoch + past, rec.epoch - past):
        with pytest.raises(StaleEphemeris, match="7.0 days from epoch"):
            propagate(rec, stale)
        with pytest.raises(StaleEphemeris, match="7.0 days from epoch"):
            visible_sats(site, [rec], stale)
    for times in ([early + past], [late - past], [early, early + past, late]):
        with pytest.raises(StaleEphemeris, match="7.0 days from epoch"):
            look_angles(site, catalog, times)


# --- topocentric geometry ------------------------------------------------

def test_zenith_and_nadir():
    site = GroundSite(0.0, 0.0)
    overhead = np.array([EARTH_RADIUS_KM + 550.0, 0.0, 0.0])
    az, el, rng = topocentric(site, overhead)
    assert el == pytest.approx(90.0)
    assert rng == pytest.approx(550.0)
    below = np.array([-(EARTH_RADIUS_KM + 550.0), 0.0, 0.0])
    _, el_b, _ = topocentric(site, below)
    assert el_b == pytest.approx(-90.0)


def test_azimuth_cardinal_directions():
    site = GroundSite(0.0, 0.0)
    r = EARTH_RADIUS_KM
    north = np.array([r * math.cos(math.radians(5)), 0.0, r * math.sin(math.radians(5))])
    east = np.array([r * math.cos(math.radians(5)), r * math.sin(math.radians(5)), 0.0])
    az_n, _, _ = topocentric(site, north)
    az_e, _, _ = topocentric(site, east)
    assert az_n == pytest.approx(0.0, abs=1e-9) or az_n == pytest.approx(360.0, abs=1e-9)
    assert az_e == pytest.approx(90.0, abs=1e-6)


def test_elevation_drops_with_ground_distance():
    site = GroundSite(45.0, 10.0)
    sat_alt = EARTH_RADIUS_KM + 550.0
    els = []
    for dlat in (0.001, 1.0, 3.0, 6.0, 10.0):
        lat = math.radians(45.0 + dlat)
        lon = math.radians(10.0)
        pos = np.array([sat_alt * math.cos(lat) * math.cos(lon),
                        sat_alt * math.cos(lat) * math.sin(lon),
                        sat_alt * math.sin(lat)])
        els.append(topocentric(site, pos)[1])
    assert all(a > b for a, b in zip(els, els[1:]))


# --- visibility ----------------------------------------------------------

def brute_force_visible(site, catalog, t, mask):
    out = []
    for rec in catalog:
        az, el, rng = topocentric(site, propagate(rec, t))
        if el >= mask:
            out.append((rec.name, az, el, rng))
    out.sort(key=lambda v: (-v[2], v[0]))
    return out


def zenith_record(site, t):
    """A shell satellite straight above an equatorial site at t."""
    mm = shell_record().mean_motion_rev_per_day
    raan = math.degrees(gmst_rad(t)) + site.longitude_deg
    return TleRecord("ZENITH", 53.0, raan % 360.0, 0.0, 0.0, 0.0, mm, t)


def test_visible_sats_matches_brute_force():
    """At the default mask, at the horizon, and at 89.9 degrees, where only
    a satellite straight overhead is left."""
    for site, minutes, mask in ((GroundSite(47.6, -122.3), 23, 25.0),
                                (GroundSite(47.6, -122.3), 23, 0.0),
                                (GroundSite(0.0, 30.0), 0, 0.0),
                                (GroundSite(0.0, 30.0), 0, 89.9)):
        catalog = synthetic_constellation()
        t = catalog[0].epoch + timedelta(minutes=minutes)
        if site.latitude_deg == 0.0:
            catalog.append(zenith_record(site, t))
        fast = visible_sats(site, catalog, t, mask_deg=mask)
        slow = brute_force_visible(site, catalog, t, mask)
        assert fast
        assert len(fast) == len(slow)
        for got, want in zip(fast, slow):
            assert got.sat_id == want[0]
            assert got.azimuth_deg == pytest.approx(want[1], abs=1e-9)
            assert got.elevation_deg == pytest.approx(want[2], abs=1e-9)
            assert got.range_km == pytest.approx(want[3], abs=1e-6)


def test_look_angles_are_nan_exactly_below_the_horizon():
    site = GroundSite(-0.2, -78.5, 2850.0)
    catalog = _two_epoch_catalog()
    t = datetime(2026, 1, 2, 3, 0, tzinfo=timezone.utc)
    az, el, rng = (a[0] for a in look_angles(site, catalog, [t]))
    for i, rec in enumerate(catalog):
        want_az, want_el, want_rng = topocentric(site, propagate(rec, t))
        if want_el < 0.0:
            assert np.isnan(az[i]) and np.isnan(el[i]) and np.isnan(rng[i])
        else:
            assert (az[i], el[i], rng[i]) == pytest.approx((want_az, want_el, want_rng),
                                                           abs=1e-6)


@pytest.mark.parametrize("site", [GroundSite(-0.2, -78.5, 2850.0),
                                  GroundSite(90.0, 0.0), GroundSite(-90.0, 45.0)])
def test_look_angles_batch_equals_one_instant_at_a_time(site):
    """Every (instant, satellite) pair of a batch holds the same bits as a
    call for its instant alone."""
    catalog = _two_epoch_catalog()
    start = datetime(2026, 1, 2, 3, 0, tzinfo=timezone.utc)
    times = [start + timedelta(seconds=97.5 * i) for i in range(25)]
    batch = look_angles(site, catalog, times)
    assert all(a.shape == (len(times), len(catalog)) for a in batch)
    for i, t in enumerate(times):
        one = look_angles(site, catalog, [t])
        for got, want in zip(batch, one):
            assert got[i].tobytes() == want[0].tobytes()
    assert [a.shape for a in look_angles(site, catalog, [])] == [(0, len(catalog))] * 3


def test_visible_sats_sorted_and_masked():
    catalog = synthetic_constellation()
    site = GroundSite(51.5, 0.0)
    rng = np.random.default_rng(3)
    saw_any = False
    for dt_min in rng.uniform(0, 180, size=12):
        vis = visible_sats(site, catalog, catalog[0].epoch + timedelta(minutes=float(dt_min)))
        els = [v.elevation_deg for v in vis]
        assert els == sorted(els, reverse=True)
        assert all(e >= 25.0 for e in els)
        saw_any = saw_any or bool(vis)
    assert saw_any


def test_constellation_keeps_midlatitude_sites_covered():
    # the serving-satellite picker needs a candidate nearly always; sample a
    # full orbit period at sites across the service latitudes
    catalog = synthetic_constellation()
    epoch = catalog[0].epoch
    for lat in (41.0, 47.6, 53.0):
        site = GroundSite(lat, -100.0)
        misses = sum(
            not visible_sats(site, catalog, epoch + timedelta(seconds=s))
            for s in range(0, 5760, 60)
        )
        assert misses <= 2, f"lat {lat}: {misses} empty slots"


def test_visible_sats_rejects_bad_mask():
    with pytest.raises(ValueError):
        visible_sats(GroundSite(0, 0), [], datetime(2026, 1, 10, tzinfo=timezone.utc), mask_deg=90.0)


def _two_epoch_catalog():
    """Planes 0-10 from one epoch and planes 11-21, phased differently,
    from an epoch 36 hours later."""
    early = synthetic_constellation(epoch=datetime(2026, 1, 1, tzinfo=timezone.utc))
    late = synthetic_constellation(epoch=datetime(2026, 1, 2, 12, tzinfo=timezone.utc),
                                   phase_offset_deg=7.0)
    return early[:220] + late[220:]


def _visible_digest(site, catalog, start, step_s=97.0, count=50):
    rows = [[dataclasses.astuple(v) for v in
             visible_sats(site, catalog, start + timedelta(seconds=i * step_s))]
            for i in range(count)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of repr() of every (sat_id, az, el, range) tuple at 50 instants;
# repr round-trips floats, so any change in any bit of the geometry shows
GOLDEN_VISIBLE = {
    "shell_seattle": (
        lambda: _visible_digest(GroundSite(47.6, -122.3), synthetic_constellation(),
                                datetime(2026, 1, 1, 0, 7, tzinfo=timezone.utc)),
        "0ca758ae416ca5ec78dbfd2b6294b108fe893c7e089368b44a8af107d5e06017"),
    "two_epochs_quito": (
        lambda: _visible_digest(GroundSite(-0.2, -78.5, 2850.0), _two_epoch_catalog(),
                                datetime(2026, 1, 2, 3, 0, tzinfo=timezone.utc)),
        "9378093fd7833aedabf72f1f20914481b68015747f6a3164a2bdd4e7c327b2f1"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VISIBLE))
def test_visible_sats_golden_digest(case):
    make, expected = GOLDEN_VISIBLE[case]
    assert make() == expected


def _bits(site, catalog, t):
    return repr([dataclasses.astuple(v) for v in visible_sats(site, catalog, t)])


def test_catalog_columns_never_go_stale():
    """visible_sats on a catalog it has seen before equals visible_sats on
    a fresh copy of the list, after in-place edits, between two catalogs
    used in turn, past the number of catalogs whose columns are kept, and
    for an empty catalog that later fills."""
    site = GroundSite(47.6, -122.3)
    t = datetime(2026, 1, 1, 0, 7, tzinfo=timezone.utc)
    catalog = synthetic_constellation()
    first = _bits(site, catalog, t)

    top = next(i for i, r in enumerate(catalog)
               if r.name == visible_sats(site, catalog, t)[0].sat_id)
    highest = catalog[top]
    catalog[top] = dataclasses.replace(highest, raan_deg=highest.raan_deg + 40.0)
    replaced = _bits(site, catalog, t)
    assert replaced != first
    assert replaced == _bits(site, list(catalog), t)

    catalog.append(dataclasses.replace(highest, name="EXTRA"))
    appended = _bits(site, catalog, t)
    assert appended != replaced
    assert appended == _bits(site, list(catalog), t)

    others = [synthetic_constellation(phase_offset_deg=p, epoch=t - timedelta(hours=h))
              for p, h in ((1.0, 1), (2.0, 5), (3.0, 9), (4.0, 13), (6.0, 20))]
    for _ in range(2):
        for cat in [catalog] + others:
            assert _bits(site, cat, t) == _bits(site, list(cat), t)

    empty: list[TleRecord] = []
    assert visible_sats(site, empty, t) == []
    empty.extend(catalog)
    assert _bits(site, empty, t) == appended
