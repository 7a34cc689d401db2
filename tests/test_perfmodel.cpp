// Performance-model tests (Sec. 5): Eq. 13-17 identities, the scaling
// insights the paper derives (T ~ 1/N_gpus, store-bound weak scaling), and
// simulate() vs project() consistency.
#include <gtest/gtest.h>

#include "io/datasets.hpp"
#include "perfmodel/model.hpp"

namespace xct::perfmodel {
namespace {

RunConfig cfg_for(const std::string& dataset, index_t vol, index_t ng, index_t nr, index_t nc = 8)
{
    RunConfig c;
    c.geometry = io::dataset_by_name(dataset).with_volume(vol).geometry;
    c.layout = GroupLayout{ng, nr};
    c.batches = nc;
    return c;
}

TEST(BatchTimes, LoadFollowsEquation13Exactly)
{
    const RunConfig c = cfg_for("tomo_00030", 512, 1, 1);
    const MachineParams m = MachineParams::abci_v100();
    const auto bt = batch_times(c, m);
    ASSERT_EQ(bt.size(), 8u);
    // Eq. 13: batch 0 loads its whole band, later batches only the delta.
    // (Outer slabs of a volume taller than the detector FOV have empty
    // bands — the formula must honour that too.)
    const auto plans = plan_slabs(c.geometry, Range{0, 512}, 64);
    for (std::size_t i = 0; i < bt.size(); ++i) {
        const index_t rows = i == 0 ? plans[i].rows.length() : plans[i].delta.length();
        const double expect = 4.0 * static_cast<double>(c.geometry.nu) *
                              static_cast<double>(c.geometry.num_proj) *
                              static_cast<double>(rows) / (m.bw_load_gbps * 1e9);
        ASSERT_NEAR(bt[i].load, expect, 1e-12) << "batch " << i;
    }
}

TEST(BatchTimes, BpTimeFollowsEquation14)
{
    const RunConfig c = cfg_for("tomo_00030", 512, 1, 1);
    const MachineParams m = MachineParams::abci_v100();
    const auto bt = batch_times(c, m);
    // Eq. 14: Nx*Ny*Nb*Np / (Nr * TH_bp) with Nb = 512/8 = 64.
    const double expect = 512.0 * 512.0 * 64.0 * 720.0 / (m.th_bp_gups * 1e9);
    EXPECT_NEAR(bt[3].bp, expect, expect * 1e-12);
}

TEST(BatchTimes, ReduceIsZeroForSingleRankGroups)
{
    const auto bt1 = batch_times(cfg_for("tomo_00030", 256, 4, 1), MachineParams::abci_v100());
    for (const auto& t : bt1) EXPECT_DOUBLE_EQ(t.reduce, 0.0);
    const auto bt4 = batch_times(cfg_for("tomo_00030", 256, 4, 4), MachineParams::abci_v100());
    for (const auto& t : bt4) EXPECT_GT(t.reduce, 0.0);
}

TEST(BatchTimes, ReduceGrowsLogarithmicallyWithNr)
{
    const MachineParams m = MachineParams::abci_v100();
    const auto t2 = batch_times(cfg_for("tomo_00030", 256, 1, 2), m)[1].reduce;
    const auto t4 = batch_times(cfg_for("tomo_00030", 256, 1, 4), m)[1].reduce;
    const auto t16 = batch_times(cfg_for("tomo_00030", 256, 1, 16), m)[1].reduce;
    EXPECT_NEAR(t4 / t2, 2.0, 1e-9);   // log2(4)/log2(2)
    EXPECT_NEAR(t16 / t2, 4.0, 1e-9);  // log2(16)/log2(2)
}

TEST(Project, RuntimeShrinksWithMoreGpus)
{
    // The paper's central scaling insight: T_runtime ~ 1/N_gpus until the
    // shared store bandwidth floors it (Fig. 13).
    const MachineParams m = MachineParams::abci_v100();
    double prev = 1e30;
    for (index_t ng : {1, 2, 4, 8, 16, 32}) {
        const double t = project(cfg_for("tomo_00029", 1024, ng, 4), m).runtime;
        EXPECT_LT(t, prev) << "Ng=" << ng;
        prev = t;
    }
}

TEST(Project, StrongScalingFlattensAtScale)
{
    // Fig. 13: near-linear early, flat beyond ~256 GPUs where I/O and
    // reduction dominate.
    const MachineParams m = MachineParams::abci_v100();
    const double t16 = project(cfg_for("tomo_00029", 2048, 4, 4), m).runtime;
    const double t64 = project(cfg_for("tomo_00029", 2048, 16, 4), m).runtime;
    const double t1024 = project(cfg_for("tomo_00029", 2048, 256, 4), m).runtime;
    const double t512 = project(cfg_for("tomo_00029", 2048, 128, 4), m).runtime;
    const double early_speedup = t16 / t64;        // 4x resources
    const double late_speedup = t512 / t1024;      // 2x resources
    EXPECT_GT(early_speedup, 2.5);                 // near-linear early
    EXPECT_LT(late_speedup, 1.5);                  // flattened late
}

TEST(Project, WeakScalingIsStoreBound)
{
    // Fig. 14: generating a fixed 4096^3 output, runtime converges to the
    // shared-store floor (~9 s at 28.5 GB/s for 256 GiB).
    const MachineParams m = MachineParams::abci_v100();
    RunConfig c = cfg_for("coffee_bean", 4096, 64, 16);
    const double t = project(c, m).runtime;
    const double store_floor = 4096.0 * 4096.0 * 4096.0 * 4.0 / (m.bw_store_gbps * 1e9);
    EXPECT_GT(t, store_floor);
    EXPECT_LT(t, store_floor * 2.5);
    EXPECT_NEAR(store_floor, 9.6, 0.5);  // the paper's ~9 s
}

TEST(Project, MatchesTable5SingleGpuShape)
{
    // Table 5, tomo_00029 -> 2048^3 on one V100: T_bp dominates at
    // ~124 s; total ~138 s.  The model must land in that regime.
    const MachineParams m = MachineParams::abci_v100();
    const Projection p = project(cfg_for("tomo_00029", 2048, 1, 1), m);
    EXPECT_GT(p.t_bp, 100.0);
    EXPECT_LT(p.t_bp, 160.0);
    EXPECT_GT(p.runtime, p.t_bp);          // pipeline cannot beat its bottleneck
    EXPECT_LT(p.runtime, p.t_bp * 1.35);   // ...but overlaps everything else
}

TEST(Project, GupsMatchesPaperScale)
{
    // Fig. 15: aggregate GUPS reaches tens of thousands at 1024 GPUs.
    const MachineParams m = MachineParams::abci_v100();
    const Projection one = project(cfg_for("tomo_00029", 2048, 1, 1), m);
    EXPECT_GT(one.gups, 50.0);
    EXPECT_LT(one.gups, 130.0);
    const Projection big = project(cfg_for("coffee_bean", 4096, 256, 4), m);
    EXPECT_GT(big.gups, 5000.0);
}

TEST(Simulate, BoundedByBottleneckAndSerialSum)
{
    // True bounds: the makespan can never beat the busiest stream (every
    // batch passes through each stage in order) and never exceeds full
    // serialisation.  Eq. 17's projection — which serialises batch 0 but
    // assumes perfect overlap afterwards — must land in the same regime
    // as the event simulation (within 2x either way).
    const MachineParams m = MachineParams::abci_v100();
    for (index_t ng : {1, 4, 16}) {
        const RunConfig c = cfg_for("tomo_00029", 1024, ng, 4);
        const Projection s = simulate(c, m);
        const Projection p = project(c, m);
        const double bottleneck =
            std::max({s.t_load, s.t_filter, s.t_h2d + s.t_bp + s.t_d2h, s.t_reduce, s.t_store});
        const double serial = s.t_load + s.t_filter + s.t_h2d + s.t_bp + s.t_d2h + s.t_reduce +
                              s.t_store;
        EXPECT_GE(s.runtime, bottleneck - 1e-12) << "Ng=" << ng;
        EXPECT_LE(s.runtime, serial + 1e-12) << "Ng=" << ng;
        EXPECT_GT(s.runtime, p.runtime * 0.5) << "Ng=" << ng;
        EXPECT_LT(s.runtime, p.runtime * 2.0) << "Ng=" << ng;
    }
}

TEST(Simulate, SumOfStagesUpperBoundsSimulation)
{
    const MachineParams m = MachineParams::abci_v100();
    const RunConfig c = cfg_for("tomo_00030", 512, 1, 1);
    const Projection s = simulate(c, m);
    const double serial = s.t_load + s.t_filter + s.t_h2d + s.t_bp + s.t_d2h + s.t_reduce +
                          s.t_store;
    EXPECT_LE(s.runtime, serial + 1e-12);
}

TEST(SimulateSpans, StagesOfOneItemAreOrdered)
{
    const MachineParams m = MachineParams::abci_v100();
    const auto spans = simulate_spans(cfg_for("tomo_00030", 256, 1, 1), m);
    ASSERT_EQ(spans.size(), 8u * 5u);
    for (std::size_t i = 0; i + 4 < spans.size(); i += 5) {
        for (int s = 0; s < 4; ++s)
            EXPECT_LE(spans[i + static_cast<std::size_t>(s)].end,
                      spans[i + static_cast<std::size_t>(s) + 1].begin + 1e-12);
    }
}

TEST(SimulateSpans, ConsecutiveBatchesOverlapAcrossStages)
{
    // The Fig. 10 visual: while batch i is in back-projection, batch i+1
    // is already loading/filtering.
    const MachineParams m = MachineParams::abci_v100();
    const auto spans = simulate_spans(cfg_for("tomo_00029", 1024, 1, 1), m);
    double bp1_begin = 0.0, load2_begin = 0.0, bp1_end = 0.0;
    for (const auto& s : spans) {
        if (s.name == "bp" && s.item == 1) {
            bp1_begin = s.begin;
            bp1_end = s.end;
        }
        if (s.name == "load" && s.item == 2) load2_begin = s.begin;
    }
    EXPECT_LT(load2_begin, bp1_end);  // overlap exists
    EXPECT_GE(load2_begin, 0.0);
    (void)bp1_begin;
}

TEST(MeasureLocal, ProducesPositiveCalibratedThroughputs)
{
    const MachineParams m = measure_local();
    EXPECT_GT(m.th_bp_gups, 0.0);
    EXPECT_GT(m.th_flt_geps, 0.0);
    // Other parameters inherited from the base.
    EXPECT_DOUBLE_EQ(m.bw_store_gbps, MachineParams{}.bw_store_gbps);
}

TEST(Project, AggregatesSumBatches)
{
    const MachineParams m = MachineParams::abci_v100();
    const RunConfig c = cfg_for("tomo_00030", 256, 1, 1, 4);
    const Projection p = project(c, m);
    double load = 0.0;
    for (const auto& b : p.batches) load += b.load;
    EXPECT_DOUBLE_EQ(p.t_load, load);
    ASSERT_EQ(p.batches.size(), 4u);
}

TEST(Project, A100OutpacesV100)
{
    const RunConfig c = cfg_for("tomo_00029", 1024, 1, 1);
    EXPECT_LT(project(c, MachineParams::abci_a100()).runtime,
              project(c, MachineParams::abci_v100()).runtime);
}

}  // namespace
}  // namespace xct::perfmodel
