import pytest

from drinfeldlab import cinf
from drinfeldlab.errors import GridTooCoarse, ResidueFieldTooSmall
from drinfeldlab.suggest import suggest_config


def test_suggest_q3_sample():
    out = suggest_config(3, rank=2, kappa_poly=(1,), u_poly=(1,))
    assert out["m"] == 4 and out["e"] == 72
    assert out["torsion_valuations"] == [-9]


def test_suggest_q5_sample():
    out = suggest_config(5, rank=2, kappa_poly=(1,), u_poly=(1,))
    assert out["m"] == 4 and out["e"] == 600


def test_suggest_carlitz():
    out = suggest_config(3, rank=1)
    assert out["m"] == 2 and out["e"] == 18
    # the minimal legal grid already splits the torsion x^2 = -theta
    assert out["refinements"] == 0


def test_suggest_detects_wild_module():
    with pytest.raises(GridTooCoarse) as exc:
        suggest_config(5, rank=2, kappa_poly=(0, 1), u_poly=(1,))
    assert "wildly ramified" in str(exc.value)


@pytest.mark.parametrize("bits,stops", [(7, None), (6, 4)])
def test_suggest_field_bound_is_the_stated_one(monkeypatch, bits, stops):
    # the q3 sample needs m = 4: the one field bound of FieldConfig, at
    # 2^7 elements, admits F_81; at 2^6 it stops the search at m = 4 with
    # a typed error, before FieldConfig would refuse the field
    monkeypatch.setattr(cinf, "_FIELD_BITS", bits)
    if stops is None:
        assert suggest_config(3, kappa_poly=(1,), u_poly=(1,))["m"] == 4
        return
    with pytest.raises(ResidueFieldTooSmall, match="stopped at m = 4"):
        suggest_config(3, kappa_poly=(1,), u_poly=(1,))
