import pytest

from rankshot.cosets import PartitionChain
from rankshot.fields import ExtensionField, PrimeField
from rankshot.gabidulin import GabidulinCode
from rankshot.multilevel import MultilevelCodeSpec, special_situation, spec_from_json
from rankshot.outer import OuterCode


@pytest.fixture(scope="session")
def f8():
    # x^3 + x + 1, the modulus every hand-computed value below assumes
    return ExtensionField(PrimeField(2), modulus=[1, 1, 0, 1])


@pytest.fixture(scope="session")
def f9():
    # x^2 + 1 is irreducible over F_3
    return ExtensionField(PrimeField(3), modulus=[1, 0, 1])


@pytest.fixture(scope="session")
def tiny2shot(f8):
    """N=3, chain 2>1>0 over F_8, two shots, [2,1,2] outer codes at both
    levels: 64 codewords, design rank distance 4."""
    code = GabidulinCode(f8, 3, 2)
    return MultilevelCodeSpec(PartitionChain(code, [2, 1, 0]), 2, [1, 1])


@pytest.fixture(scope="session")
def decode12():
    """special_situation(2, 4, 4, 2, 2, 4): chain 2>1>0 over F_16, two
    shots, 2^12 codewords."""
    return special_situation(2, 4, 4, 2, 2, 4)[0]


@pytest.fixture(scope="session")
def q3spec():
    """q = 3: chain 2>1>0 over F_9, four shots, [4,2] outer codes."""
    return spec_from_json({"field": {"q": 3, "M": 2}, "N": 2, "K": 2, "Ks": [2, 1, 0],
                           "n": 4, "outers": [{"n": 4, "k": 2}, {"n": 4, "k": 2}]})


@pytest.fixture(scope="session")
def towerspec():
    """One level peels both generator columns over F_4 (delta_k = 2), so
    its alphabet is F_16 over F_4; three shots, a [3,2] outer code."""
    return spec_from_json({"field": {"q": 2, "M": 2}, "N": 2, "K": 2, "Ks": [2, 0], "n": 3,
                           "outers": [{"n": 3, "k": 2}]})


@pytest.fixture(scope="session")
def preset():
    """special_situation(2, 4, 4, 2, 3, 4), configs/special_preset.json:
    chain 2>1>0 over F_16, three shots, 2^20 codewords."""
    return special_situation(2, 4, 4, 2, 3, 4)[0]


@pytest.fixture(scope="session")
def widespec():
    """Level 0 peels two generator columns over F_(2^32), so its alphabet
    F_(2^64) leaves int64."""
    return spec_from_json({"field": {"q": 2, "M": 32}, "N": 4, "K": 3, "Ks": [3, 1, 0],
                           "n": 2, "outers": [{"n": 2, "k": 1}, {"n": 2, "k": 1}]})


@pytest.fixture(scope="session")
def outer_refs(preset):
    """The special preset's outer codes ([3,2] and [3,3] over F_16) and a
    [6,2,5] code over F_9, whose primitive modulus x^2 + x + 2 gives the
    generator order 8."""
    f9 = ExtensionField(PrimeField(3), modulus=[2, 1, 1])
    return list(preset.outers) + [OuterCode(f9, 6, 2)]
