"""Golden values for the seed mixing and the per-unit random streams.

The values were recorded from the uint64-array implementation of splitmix64;
they pin the integer arithmetic so that no rewrite changes a derived seed or
a unit's draw.
"""

import numpy as np
import pytest

from budgex._rng import OUTCOME, TREATMENT, derive_seed, unit_uniform

DERIVED_SEEDS = [
    (-1, (), 18446744073709551615),
    (-5, (3,), 9870940514099297810),
    (0, (0,), 16294208416658607535),
    (0, (1, 2, 3), 15020427595393229491),
    (2**63, (7,), 7195639206139662248),
    (2**64 - 1, (0x726570, 4), 4203673831111764232),
    (12345, (-2, 2**63 + 5), 17341803189074390493),
    (3, (0x706F6F6C,), 13499293605663429937),
]

UNIT_IDS = [0, 1, 7, 2**40]

UNIFORMS = [
    (0, TREATMENT, [0.2645230875138814, 0.5468589231042922,
                    0.7912601938725523, 0.6970810712058236]),
    (0, OUTCOME, [0.3062110637998372, 0.44091148055163176,
                  0.5153657215022163, 0.9725553979289883]),
    (-3, TREATMENT, [0.882733951367469, 0.10832804783730676,
                     0.8094288392595825, 0.30844992653133796]),
    (-3, OUTCOME, [0.07253114354192602, 0.8638683504691398,
                   0.9639738620031273, 0.7570731600009742]),
    (2**63 + 1, TREATMENT, [0.2517805931969973, 0.10499666049629497,
                            0.15118918292254302, 0.4693299683625064]),
    (2**63 + 1, OUTCOME, [0.13745341580668424, 0.8736330234480504,
                          0.9828839719505565, 0.6088732923563365]),
]


@pytest.mark.parametrize("master, parts, expected", DERIVED_SEEDS)
def test_derive_seed_golden(master, parts, expected):
    seed = derive_seed(master, *parts)
    assert type(seed) is int
    assert seed == expected


@pytest.mark.parametrize("seed, purpose, expected", UNIFORMS)
def test_unit_uniform_golden(seed, purpose, expected):
    ids = np.array(UNIT_IDS, dtype=np.int64)
    assert unit_uniform(seed, ids, purpose).tolist() == expected


def test_unit_uniform_scalar_id_matches_array():
    one = unit_uniform(0, 2**40, OUTCOME)
    assert np.ndim(one) == 0
    assert float(one) == UNIFORMS[1][2][3]
