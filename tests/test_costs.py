"""Accountant: scaling laws, exact agreement with a direct enumeration
of the parameter store, and the cost table pinned as ``voxseg flops``
prints it."""

import pytest

import helpers
from gradcheck_suite import TINY_MODEL
from voxseg import autodiff as ad
from voxseg import costs
from voxseg import model as mdl
from voxseg import prompter as pr


class TestPrompterTable:
    """The prompter's rows of the whole-model cost table, and its layout."""

    def test_doubling_channels_quadruples_projection_params(self):
        def proj_params(c):
            specs = pr.param_specs(mdl.ModelSpec(embed_dim=c))
            projections = ("prompter.wq", "prompter.wk", "prompter.wv_sa", "prompter.wv_ca")
            return sum(shape[0] * shape[1] for name, shape, _, _ in specs if name in projections)

        assert proj_params(128) == 4 * proj_params(64)

    def test_attention_terms_linear_in_tokens(self):
        """Doubling M at fixed n doubles attention-category flops within 1%."""
        base = costs.count_cost(mdl.ModelSpec(vol_dims=(32, 32, 32)))
        double = costs.count_cost(mdl.ModelSpec(vol_dims=(64, 32, 32)))
        a1 = base.flops("prompter", category="attention")
        a2 = double.flops("prompter", category="attention")
        assert abs(a2 / a1 - 2.0) < 0.01


class TestAccountantVsStore:
    @pytest.mark.parametrize("kwargs", [
        {},  # desk default
        {"mlp_ratio": 2, "adapter_dim": 8},  # MLP and adapter widths off their defaults
        {"layers": 6, "taps": (2, 4, 6), "prompt_layer": 6},  # three taps
        {"vol_dims": (16, 16, 16), "embed_dim": 16, "heads": 2, "adapter_dim": 4,
         "prompt_n": 16, "dec_channels": 8},
        # patch 2: volume/target ratio 1, image pyramid degenerates to one
        # non-strided stage
        {"vol_dims": (16, 16, 16), "patch": (2, 2, 2), "embed_dim": 32, "heads": 4,
         "adapter_dim": 8, "prompt_n": 32, "dec_channels": 8},
        # patch 8: volume/target ratio 4, two strided pyramid stages
        {"vol_dims": (32, 32, 32), "patch": (8, 8, 8), "prompt_n": 64},
        {"no_image_branch": True},  # the branch's params stay in the store
    ])
    def test_params_equal_store_enumeration(self, kwargs):
        spec = mdl.ModelSpec(**kwargs).validate()
        with ad.precision("f32"):
            store = mdl.init_store(spec, seed=0)
        rep = costs.count_cost(spec)
        assert rep.params() == helpers.total_params(store)

    def test_no_image_branch_prices_no_image_flops(self):
        """The ablation runs no image branch: its 8 items keep their params
        but cost nothing, 243,793,920 decoder flops at desk defaults."""
        base = costs.count_cost(mdl.ModelSpec().validate())
        ablated = costs.count_cost(mdl.ModelSpec(no_image_branch=True).validate())
        img = [it for it in ablated.items if ".img." in it.name]
        assert len(img) == 8 and all(it.macs == it.other_flops == 0 for it in img)
        assert base.flops("decoder") - ablated.flops("decoder") == 243_793_920
        assert ablated.params() == base.params()

    def test_decoder_prices_what_runs(self):
        """At desk defaults the upsampled convs' projections are linear MACs
        at the input grid and their shifted interpolation interp MACs, as
        ``upsample_conv3d`` runs them: decoder flops 2,355,494,912 while the
        fuse and smooth convs ran over built upsamples, now 1,493,827,584."""
        rep = costs.count_cost(mdl.ModelSpec().validate())
        assert rep.flops("decoder") == 1_493_827_584
        assert rep.macs("decoder", category="linear") == 658_767_872
        assert rep.macs("decoder", category="interp") == 84_279_296
        smooth = {it.name: it for it in rep.items if it.name.startswith("smooth")}
        assert smooth["smooth"].macs == 27 * 32 * 16 * 16 * 16 * 16
        assert smooth["smooth.interp"].macs == 65_929_216
        assert not any(it.name.endswith("upsample") or it.name == "up_full" for it in rep.items)

    def test_totals_equal_sum_of_parts(self):
        rep = costs.count_cost(mdl.ModelSpec().validate())
        assert rep.flops() == sum(
            2 * it.macs + it.other_flops for it in rep.items
        )
        assert rep.params() == sum(rep.params(m) for m in rep.modules())

    def test_deterministic_and_execution_free(self):
        spec = mdl.ModelSpec().validate()
        a = costs.count_cost(spec)
        b = costs.count_cost(spec)
        assert a.items == b.items
        # closed-form: 10k full-model evaluations run in well under a second
        import time

        t0 = time.perf_counter()
        for _ in range(100):
            costs.count_cost(spec)
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("spec,table", [
        (mdl.ModelSpec(), """\
module                  flops     linear flops       params
patch               4,489,216        4,456,448       34,112
encoder         1,504,542,720      644,972,544      624,384
prompter           46,809,088       29,360,128       86,400
decoder         1,493,827,584    1,318,191,104      237,345
total           3,049,668,608    1,996,980,224      982,241"""),
        (TINY_MODEL, """\
module                  flops     linear flops       params
patch                 140,288          139,264        1,360
encoder             9,071,616        5,409,792       40,896
prompter              381,952          229,376        3,424
decoder            43,745,280       38,158,336       46,097
total              53,339,136       43,936,768       91,777"""),
    ], ids=["default", "tiny"])
    def test_render_pinned(self, spec, table):
        """The table ``voxseg flops`` prints for the default config and the
        tiny one (``conftest.tiny_config``), byte for byte."""
        assert costs.count_cost(spec).render() == table
