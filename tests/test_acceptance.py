"""Each test runs one criterion of `kdist.criteria` at full scale and prints
one pass line (pytest reports a failure); `kdist selftest` runs them small.
"""

from kdist import criteria


def _run(criterion):
    number = criteria.CRITERIA.index(criterion) + 1
    print(f"criterion {number}: PASS ({criterion(full=True)})")


def test_criterion_01_grid_extremality():
    _run(criteria.grid_extremality)


def test_criterion_02_height_certificates():
    _run(criteria.height_certificates)


def test_criterion_03_distinct_distance_witness():
    _run(criteria.distinct_distance_witness)


def test_criterion_04_planar_bound():
    _run(criteria.planar_bound)


def test_criterion_05_normalization():
    _run(criteria.normalization)


def test_criterion_06_cluster_equivalence():
    _run(criteria.cluster_equivalence)


def test_criterion_07_volume_bound():
    _run(criteria.volume_bound)


def test_criterion_08_cone_cover():
    _run(criteria.cone_cover)


def test_criterion_09_oracle_equivalence():
    _run(criteria.oracle_equivalence)


def test_criterion_10_extremal_uniqueness():
    _run(criteria.extremal_uniqueness)
