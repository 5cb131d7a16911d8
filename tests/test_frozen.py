import subprocess
import sys
from fractions import Fraction

import pytest

from symtorus.classify4d import ProductT2S2
from symtorus.orbisurface import FuchsianSignature


def test_value_classes_compare_hash_and_print_by_fields():
    sig = FuchsianSignature(1, [2, 2])
    assert sig == FuchsianSignature(1, (2, 2))
    assert hash(sig) == hash(FuchsianSignature(1, (2, 2)))
    assert sig != FuchsianSignature(1, (2, 3))
    assert sig != (1, (2, 2))
    assert repr(sig) == "FuchsianSignature(genus=1, orders=(2, 2))"
    assert ProductT2S2(1, 2).sphere_area == Fraction(2)


def test_value_classes_are_immutable_and_take_every_field():
    sig = FuchsianSignature(1, ())
    with pytest.raises(AttributeError):
        sig.genus = 2
    with pytest.raises(AttributeError):
        del sig.genus
    with pytest.raises(TypeError):
        FuchsianSignature(1)
    with pytest.raises(ValueError):
        FuchsianSignature(-1, ())


def test_cli_import_leaves_out_inspect():
    # dataclasses would import inspect, ast, dis and tokenize: about 1 MB
    # of resident memory in every process that runs the CLI.
    code = ("import sys, symtorus.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
