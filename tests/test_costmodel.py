"""Tests for the analytic time/memory cost model (§4.2, Appendix B.4)."""

import math

import pytest

from repro.cluster.topology import paper_cluster
from repro.core.costmodel import CostModelConfig, MalleusCostModel
from repro.models.presets import llama2_32b, llama2_70b


@pytest.fixture
def cost_model():
    return MalleusCostModel(llama2_32b(), paper_cluster(32))


class TestTimeModel:
    def test_tau_equals_zeta_of_single_gpu(self, cost_model):
        assert cost_model.tau(1) == pytest.approx(cost_model.zeta(1, 1))

    def test_zeta_decreases_with_tp_degree(self, cost_model):
        times = [cost_model.zeta(n, 1) for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_zeta_scales_with_micro_batch(self, cost_model):
        assert cost_model.zeta(1, 4) > 3.0 * cost_model.zeta(1, 1)

    def test_rho_one_is_unity(self, cost_model):
        assert cost_model.rho(1) == pytest.approx(1.0)

    def test_rho_monotonically_decreasing(self, cost_model):
        rhos = [cost_model.rho(n) for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_rho_accounts_for_tp_communication_overhead(self, cost_model):
        # Doubling the group size less than halves the per-layer time because
        # of the tensor-parallel all-reduces.
        assert cost_model.rho(2) > 0.5
        assert cost_model.rho(8) > 0.125

    def test_group_rate_uses_slowest_member(self, cost_model):
        healthy = cost_model.group_straggling_rate([1.0, 1.0, 1.0, 1.0])
        straggling = cost_model.group_straggling_rate([1.0, 1.0, 1.0, 2.6])
        assert straggling == pytest.approx(2.6 * healthy)

    def test_group_rate_of_failed_gpu_is_infinite(self, cost_model):
        assert math.isinf(cost_model.group_straggling_rate([1.0, math.inf]))

    def test_group_rate_requires_members(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.group_straggling_rate([])

    def test_stage_time_formula(self, cost_model):
        y = cost_model.group_straggling_rate([1.0] * 4)
        assert cost_model.stage_time(y, 15, 1) == pytest.approx(
            y * 15 * cost_model.tau(1)
        )

    def test_stage_time_of_empty_stage_is_zero(self, cost_model):
        assert cost_model.stage_time(1.0, 0, 1) == 0.0

    def test_pipeline_time_exact_vs_approximate(self, cost_model):
        stage_times = [1.0, 2.0, 1.5]
        approx = cost_model.pipeline_time(stage_times, 10, exact=False)
        exact = cost_model.pipeline_time(stage_times, 10, exact=True)
        assert approx == pytest.approx(20.0)
        assert exact == pytest.approx(9 * 2.0 + 4.5)
        assert exact > approx

    def test_tp_allreduce_time_zero_for_single_gpu(self, cost_model):
        assert cost_model.tp_allreduce_time(1, 1) == 0.0

    def test_tp_allreduce_time_grows_with_group(self, cost_model):
        assert cost_model.tp_allreduce_time(8, 1) > \
            cost_model.tp_allreduce_time(2, 1)


class TestPinnedRates:
    def test_repinning_a_fresh_dict_never_reads_stale_values(self):
        # A released and dropped rate dict frees its address; the next
        # dict CPython allocates there must not be served the freed
        # dict's values because the cached array was tagged by ``id()``.
        pytest.importorskip("numpy")
        cluster = paper_cluster(64)
        cost_model = MalleusCostModel(llama2_32b(), cluster, kernels="numpy")
        for step in range(200):
            rate = 1.0 + step
            rates = {gpu_id: rate for gpu_id in cluster.gpu_ids()}
            release = cost_model.pin_rates(rates)
            try:
                values = cost_model.rate_array(rates).values
                assert values.min() == values.max() == rate
            finally:
                release()
            del rates, values


class TestMemoryModel:
    def test_mu_decreases_with_stage_index(self, cost_model):
        # Later stages keep fewer in-flight activations (Theorem 3 rationale).
        mus = [cost_model.mu(4, j, 1) for j in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_mu_includes_model_states(self, cost_model):
        assert cost_model.mu(4, 4, 1) > cost_model.layer_state_bytes()

    def test_nu_only_on_first_and_last_stage(self, cost_model):
        assert cost_model.nu(4, 1, 1) > 0
        assert cost_model.nu(4, 4, 1) > 0
        assert cost_model.nu(4, 2, 1) == 0.0
        assert cost_model.nu(4, 3, 1) == 0.0

    def test_invalid_stage_index_rejected(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.mu(4, 0, 1)
        with pytest.raises(ValueError):
            cost_model.nu(4, 5, 1)

    def test_zero1_sharding_reduces_layer_states(self):
        model = llama2_32b()
        cluster = paper_cluster(32)
        zero1 = MalleusCostModel(model, cluster)
        replicated = MalleusCostModel(
            model, cluster, CostModelConfig(zero1_optimizer_sharding=False)
        )
        assert zero1.layer_state_bytes(dp_degree=4) < \
            replicated.layer_state_bytes(dp_degree=4)

    def test_group_capacity_scales_with_size(self, cost_model):
        small = cost_model.group_capacity([0])
        large = cost_model.group_capacity([0, 1, 2, 3])
        assert large == pytest.approx(4 * small)

    def test_group_capacity_requires_members(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.group_capacity([])

    def test_max_layers_positive_for_paper_config(self, cost_model):
        # A TP-4 group in a 4-stage pipeline must hold at least the 15 layers
        # the paper's 32B Megatron configuration assigns to it.
        cap = cost_model.max_layers_for_stage([0, 1, 2, 3], 4, 1, 1, dp_degree=2)
        assert cap >= 15

    def test_max_layers_smaller_for_first_stage(self, cost_model):
        first = cost_model.max_layers_for_stage([0, 1, 2, 3], 4, 1, 1, 2)
        last = cost_model.max_layers_for_stage([0, 1, 2, 3], 4, 4, 1, 2)
        assert first <= last

    def test_max_layers_decreases_with_micro_batch(self, cost_model):
        small = cost_model.max_layers_for_stage([0, 1, 2, 3], 4, 1, 1, 2)
        large = cost_model.max_layers_for_stage([0, 1, 2, 3], 4, 1, 4, 2)
        assert large <= small

    def test_stage_memory_is_affine_in_layers(self, cost_model):
        base = cost_model.stage_memory_bytes([0, 1], 0, 2, 1, 1, 2)
        one = cost_model.stage_memory_bytes([0, 1], 1, 2, 1, 1, 2)
        ten = cost_model.stage_memory_bytes([0, 1], 10, 2, 1, 1, 2)
        assert ten - base == pytest.approx(10 * (one - base), rel=1e-9)

    def test_single_gpu_cannot_hold_whole_70b_model(self):
        cost_model = MalleusCostModel(llama2_70b(), paper_cluster(64))
        cap = cost_model.max_layers_for_stage([0], 1, 1, 1, dp_degree=2)
        assert cap < 80


class TestMFU:
    def test_mfu_in_sensible_range_for_paper_step_time(self, cost_model):
        # The paper reports 48.5% MFU for the 32B model at 11.6 s/step.
        mfu = cost_model.mfu(step_time=11.6, global_batch_size=64, num_gpus=32)
        assert 0.40 < mfu < 0.60

    def test_mfu_inversely_proportional_to_step_time(self, cost_model):
        fast = cost_model.mfu(10.0, 64, 32)
        slow = cost_model.mfu(20.0, 64, 32)
        assert fast == pytest.approx(2 * slow)

    def test_mfu_zero_for_degenerate_inputs(self, cost_model):
        assert cost_model.mfu(0.0, 64, 32) == 0.0
        assert cost_model.mfu(10.0, 64, 0) == 0.0
