/**
 * @file
 * Parameter-validation and input-scaling tests: bad configurations must
 * be rejected loudly (fatal/panic reach the log handler), and scaled()
 * inputs must shrink data while preserving structural invariants.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "base/logging.hh"
#include "base/units.hh"
#include "cache/cache.hh"
#include "dragonhead/dragonhead.hh"
#include "softsdv/dex_scheduler.hh"
#include "workloads/fimi.hh"
#include "workloads/mds.hh"
#include "workloads/plsa.hh"
#include "workloads/rsearch.hh"
#include "workloads/shot.hh"
#include "workloads/snp.hh"
#include "workloads/svm_rfe.hh"
#include "workloads/viewtype.hh"

namespace cosim {
namespace {

void
throwingHandler(LogLevel level, const std::string& msg)
{
    if (level == LogLevel::Panic || level == LogLevel::Fatal)
        throw std::runtime_error(msg);
}

class ParamValidation : public ::testing::Test
{
  protected:
    void SetUp() override { prev_ = setLogHandler(throwingHandler); }
    void TearDown() override { setLogHandler(prev_); }
    LogHandler prev_ = nullptr;
};

TEST_F(ParamValidation, CacheRejectsBadGeometry)
{
    CacheParams p{"bad", 1000, 64, 4};
    EXPECT_THROW(Cache c(p), std::runtime_error); // not divisible

    CacheParams p2{"bad", 1024, 48, 4};
    EXPECT_THROW(Cache c(p2), std::runtime_error); // non-pow2 line

    CacheParams p3{"bad", 3 * 64 * 4, 64, 4};
    EXPECT_THROW(Cache c(p3), std::runtime_error); // 3 sets
}

/** The message of the fatal() that @p f raises, or "" if none. */
template <typename F>
std::string
fatalMessage(F f)
{
    try {
        f();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST_F(ParamValidation, CacheAccessRejectsOutOfRangeTag)
{
    // 8 sets of 64 B lines: the tag starts at bit 9 and holds 29 bits.
    Cache c(CacheParams{"l1", 1024, 64, 2});
    EXPECT_NO_THROW(c.access((Addr{1} << 38) - 1, false));
    const std::string msg =
        fatalMessage([&] { c.access(Addr{1} << 38, false); });
    EXPECT_NE(msg.find("l1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0x4000000000"), std::string::npos) << msg;
}

TEST_F(ParamValidation, CachePrefetchFillRejectsOutOfRangeTag)
{
    Cache c(CacheParams{"l2", 1024, 64, 2});
    const std::string msg =
        fatalMessage([&] { c.prefetchFill(Addr{0xdead} << 40); });
    EXPECT_NE(msg.find("l2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0xdead0000000000"), std::string::npos) << msg;
    EXPECT_EQ(c.stats().prefetchFills, 0u);
}

TEST_F(ParamValidation, DragonheadRejectsIndivisibleSlices)
{
    DragonheadParams p;
    p.llc = {"llc", 3 * MiB, 64, 16};
    p.nSlices = 4; // 3 MB not divisible by 4 into pow2 sets
    EXPECT_THROW(Dragonhead dh(p), std::runtime_error);

    p.nSlices = 3; // not a power of two
    EXPECT_THROW(Dragonhead dh(p), std::runtime_error);
}

TEST_F(ParamValidation, StackChecksTheSmallestCapacitysTag)
{
    // 2^48 fits a 256 MB level's tag but not a 4 MB level's: the stack
    // must refuse it even though its search starts at 256 MB.
    DragonheadParams small;
    small.llc = {"llc4MB", 4 * MiB, 64, 16};
    DragonheadParams large = small;
    large.llc = {"llc256MB", 256 * MiB, 64, 16};
    LlcStack stack({large, small});
    stack.observe(msg::encode(msg::Type::StartEmulation, 0));
    BusTransaction txn;
    txn.addr = Addr{1} << 48;
    txn.size = 64;
    txn.kind = TxnKind::ReadLine;
    EXPECT_THROW(stack.observe(txn), std::runtime_error);
}

TEST_F(ParamValidation, StackViewRefusesToSnoopOrReset)
{
    // A view only reads its stack; the stack's owner snoops and resets.
    DragonheadParams p;
    p.llc = {"llc", 64 * KiB, 64, 4};
    LlcStack stack({p});
    Dragonhead view(stack, 0);
    EXPECT_THROW(view.observe(msg::encode(msg::Type::StartEmulation, 0)),
                 std::runtime_error);
    EXPECT_THROW(view.reset(), std::runtime_error);
    EXPECT_THROW(Dragonhead(stack, 1), std::runtime_error);
}

TEST_F(ParamValidation, MessagePayloadMustFit40Bits)
{
    EXPECT_THROW(msg::encodeAddr(msg::Type::InstRetired,
                                 msg::maxPayload + 1),
                 std::runtime_error);
    EXPECT_NO_THROW(msg::encodeAddr(msg::Type::InstRetired,
                                    msg::maxPayload));
}

TEST_F(ParamValidation, DexQuantumMustBeNonzero)
{
    DexParams dp;
    dp.quantumInsts = 0;
    EXPECT_THROW(DexScheduler s(dp, nullptr, nullptr),
                 std::runtime_error);
}

TEST_F(ParamValidation, WorkloadCtorsRejectNonsense)
{
    SnpParams snp;
    snp.hotVars = snp.nVars + 1;
    EXPECT_THROW(SnpWorkload wl(snp), std::runtime_error);

    PlsaParams plsa;
    plsa.seqLen = 1000; // not a multiple of blockWidth
    EXPECT_THROW(PlsaWorkload wl(plsa), std::runtime_error);

    RsearchParams rs;
    rs.band = rs.window + 1;
    EXPECT_THROW(RsearchWorkload wl(rs), std::runtime_error);

    FimiParams fimi;
    fimi.minSupport = 0;
    EXPECT_THROW(FimiWorkload wl(fimi), std::runtime_error);

    MdsParams mds;
    mds.summaryLength = mds.nSentences + 1;
    EXPECT_THROW(MdsWorkload wl(mds), std::runtime_error);

    ShotParams shot;
    shot.video.nFrames = 1;
    EXPECT_THROW(ShotWorkload wl(shot), std::runtime_error);

    ViewtypeParams vt;
    vt.nKeyframes = 0;
    EXPECT_THROW(ViewtypeWorkload wl(vt), std::runtime_error);
}

TEST_F(ParamValidation, ScaledRejectsNonPositive)
{
    EXPECT_THROW(SnpParams::scaled(0.0), std::runtime_error);
    EXPECT_THROW(MdsParams::scaled(-1.0), std::runtime_error);
}

// ---------------------------------------------------------- scaled()

TEST(ScaledInputs, ShrinkMonotonically)
{
    EXPECT_LT(SnpParams::scaled(0.1).nSamples,
              SnpParams::scaled(1.0).nSamples);
    EXPECT_LT(SvmRfeParams::scaled(0.1).nGenes,
              SvmRfeParams::scaled(1.0).nGenes);
    EXPECT_LT(MdsParams::scaled(0.1).nnzPerRow,
              MdsParams::scaled(1.0).nnzPerRow);
    EXPECT_LT(PlsaParams::scaled(0.1).seqLen,
              PlsaParams::scaled(1.0).seqLen);
    EXPECT_LT(FimiParams::scaled(0.1).txn.nTransactions,
              FimiParams::scaled(1.0).txn.nTransactions);
    EXPECT_LT(RsearchParams::scaled(0.1).dbLength,
              RsearchParams::scaled(1.0).dbLength);
    EXPECT_LE(ShotParams::scaled(0.1).video.width,
              ShotParams::scaled(1.0).video.width);
    EXPECT_LE(ViewtypeParams::scaled(0.1).video.width,
              ViewtypeParams::scaled(1.0).video.width);
}

TEST(ScaledInputs, DefaultReproductionFootprints)
{
    // The working-set engineering behind Figures 4-6 (see DESIGN.md).
    EXPECT_EQ(SnpParams::scaled(1.0).genotypeBytes(), 128 * MiB);
    EXPECT_NEAR(static_cast<double>(MdsParams::scaled(1.0).matrixBytes()),
                300.0 * MiB, 16.0 * MiB);
    // SHOT: two full-resolution frame buffers per thread ~ 3.3 MB.
    ShotParams shot = ShotParams::scaled(1.0);
    EXPECT_EQ(shot.video.width, 720u);
    EXPECT_EQ(shot.video.height, 576u);
    // VIEWTYPE: ~1.8 MB per thread -> the paper's 16/32/64 MB sequence.
    ViewtypeParams vt = ViewtypeParams::scaled(1.0);
    std::uint64_t per_thread =
        static_cast<std::uint64_t>(vt.video.width) * vt.video.height *
        (4 + 1 + 1 + 4);
    EXPECT_NEAR(static_cast<double>(per_thread), 1.8 * MiB, 0.3 * MiB);
}

TEST(ScaledInputs, TinyScaleStaysRunnable)
{
    // The smallest test scale must still satisfy every constructor.
    EXPECT_NO_THROW(SnpWorkload{SnpParams::scaled(0.01)});
    EXPECT_NO_THROW(SvmRfeWorkload{SvmRfeParams::scaled(0.01)});
    EXPECT_NO_THROW(MdsWorkload{MdsParams::scaled(0.01)});
    EXPECT_NO_THROW(ShotWorkload{ShotParams::scaled(0.01)});
    EXPECT_NO_THROW(FimiWorkload{FimiParams::scaled(0.01)});
    EXPECT_NO_THROW(ViewtypeWorkload{ViewtypeParams::scaled(0.01)});
    EXPECT_NO_THROW(PlsaWorkload{PlsaParams::scaled(0.01)});
    EXPECT_NO_THROW(RsearchWorkload{RsearchParams::scaled(0.01)});
}

} // namespace
} // namespace cosim
