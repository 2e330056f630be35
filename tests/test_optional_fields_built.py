"""Every optional field of a registered descriptor is built both ways.

A descriptor field annotated ``X | None`` is a second form of its kind.  The
compilers (deep oracle, softmax and gatv2; kernel exact and mlp; deepsets)
must build that field both as None and as a value, so that no form only
older documents or hand-built programs hold lives on in the VM: older
documents load into the compiled forms instead.
"""

from oracles import random_network
from vnlab import attention, deepsets, numkit
from vnlab.constructions import (
    DeepSimConfig,
    KernelSimConfig,
    compile_deep_vn,
    compile_kernel_vn,
    make_certified_instance,
)
from vnlab.mpnnvn import Descriptor, _codec_fields
from vnlab.separability import l1_certificate


def compiled_programs():
    rng = numkit.make_rng(3)
    n, d = 5, 3
    w = attention.random_weights(d, rng, feature_bound=0.4)
    X, cert = make_certified_instance(n, d, rng)
    fm = attention.exp_feature_map(4, d, seed=11)
    return [
        compile_deep_vn(w, DeepSimConfig(n=n)),
        compile_deep_vn(w, DeepSimConfig(n=n, selection="softmax",
                                         certificate=cert)),
        compile_deep_vn(w, DeepSimConfig(n=n, selection="gatv2",
                                         certificate=l1_certificate(X))),
        compile_kernel_vn(w, KernelSimConfig(feature_map=fm)),
        compile_kernel_vn(w, KernelSimConfig(feature_map=fm, mode="mlp",
                                             feature_bound=0.4)),
        deepsets.compile_network(random_network((d, 4, 2), rng), n),
    ]


def built_forms(programs) -> dict:
    """(kind, field) -> the set of {True, False}: whether the compilers
    built that optional field as None, as a value, or both."""
    seen = {}
    for prog in programs:
        for layer in prog.layers:
            for desc in (layer.vn_pool, layer.vn_update, layer.gn_update):
                for f in _codec_fields(type(desc)):
                    if f.optional:
                        seen.setdefault((desc.kind, f.name), set()).add(
                            getattr(desc, f.name) is None)
    return seen


def test_detects_a_field_built_one_way():
    deep = compiled_programs()[:2]  # oracle and softmax: no additive score
    assert built_forms(deep)[("softmax_select_pool", "score")] == {True}


def test_every_optional_field_is_built_as_none_and_as_a_value():
    seen = built_forms(compiled_programs())
    optional = sorted((cls.kind, f.name)
                      for cls in Descriptor._registry.values()
                      if cls.__module__.startswith("vnlab.")
                      for f in _codec_fields(cls) if f.optional)
    assert optional, "no optional field left to check"
    assert [key for key in optional
            if seen.get(key) != {True, False}] == []
