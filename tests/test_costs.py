"""Accountant: scaling laws and exact agreement with a direct
enumeration of the parameter store."""

import pytest

import helpers
from voxseg import autodiff as ad
from voxseg import costs
from voxseg import model as mdl


class TestPrompterTable:
    """The prompter's rows of the whole-model cost table."""

    def test_doubling_channels_quadruples_projection_params(self):
        def proj_params(c):
            items = costs.prompter_items(mdl.ModelSpec(embed_dim=c))
            return sum(it.params for it in items if it.name.endswith("_proj"))

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
        {"in_channels": 2},  # patch-embedding weights scale with channels
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
        assert rep.params() == sum(it.params for it in rep.items)

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

    def test_render_smoke(self):
        text = costs.count_cost(mdl.ModelSpec().validate()).render()
        assert "total" in text and "encoder" in text
