/**
 * @file
 * MDS: multi-document summarization (Section 2.5).
 *
 * Graph-based sentence ranking (power iteration over a row-stochastic
 * sentence-similarity matrix, LexRank-style) followed by Maximum
 * Marginal Relevance selection of the summary. The simulated matrix is
 * stored compressed (CSR with packed 8-byte (column, weight) pairs),
 * ~300 MB at scale 1 -- the paper's "frequently referenced ... sparse
 * matrix of 300MB" that makes MDS insensitive to every simulated cache
 * size, while its constant-stride streaming makes it one of the biggest
 * winners from larger cache lines.
 *
 * The host holds only half of it: one column offset per row and one
 * normalized weight per entry (SimilarityRows). An entry's column is a
 * function of its row's offset and its position, so the kernels compute
 * it, while the simulated caches still see loads of the packed pairs.
 *
 * Threads partition matrix rows and share everything; cache behaviour is
 * insensitive to the thread count.
 */

#ifndef COSIM_WORKLOADS_MDS_HH
#define COSIM_WORKLOADS_MDS_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "softsdv/guest.hh"
#include "workloads/sim_array.hh"
#include "workloads/thread_sync.hh"

namespace cosim {

/** Scaled input description. */
struct MdsParams
{
    std::size_t nSentences = 2048;
    std::size_t nnzPerRow = 18432;  ///< ~302 MB of packed CSR pairs
    unsigned powerIters = 2;
    std::size_t summaryLength = 8;  ///< sentences selected by MMR
    double damping = 0.85;
    double mmrLambda = 0.7;
    std::size_t rowsPerStep = 2;

    static MdsParams scaled(double scale);

    std::uint64_t matrixBytes() const
    {
        return static_cast<std::uint64_t>(nSentences) * nnzPerRow * 8;
    }
};

/**
 * The sentence-similarity matrix as the host holds it: n rows of nnz
 * entries, ascending from a per-row rotation. Entry k of row r has
 * column (offset_r + k * n / nnz) mod n, so only offset_r is stored.
 * The weights are drawn from the generator, row-normalized, and stored
 * row-major.
 */
class SimilarityRows
{
  public:
    SimilarityRows() = default;

    /** Draw @p n_rows rows of @p nnz_per_row entries from @p rng. */
    SimilarityRows(std::size_t n_rows, std::size_t nnz_per_row, Rng& rng);

    /** Call @p f(column, weight) on row @p r's entries, in order. */
    template <typename F>
    void
    forEachEntry(std::size_t r, F&& f) const
    {
        const std::size_t n = offsets_.size();
        const std::size_t nnz = nnzPerRow_;
        const std::size_t offset = offsets_[r];
        const float* w = weights_.data() + r * nnz;
        // The quotient q and remainder rem of k * n step with k instead
        // of being divided out per entry; offset and q are both below
        // n, so one subtraction wraps the column.
        const std::size_t q_step = n / nnz;
        const std::size_t rem_step = n % nnz;
        std::size_t q = 0;
        std::size_t rem = 0;
        for (std::size_t k = 0; k < nnz; ++k) {
            std::size_t col = offset + q;
            if (col >= n)
                col -= n;
            f(static_cast<std::uint32_t>(col), w[k]);
            q += q_step;
            rem += rem_step;
            if (rem >= nnz) {
                rem -= nnz;
                ++q;
            }
        }
    }

  private:
    std::size_t nnzPerRow_ = 0;
    std::vector<std::uint32_t> offsets_;
    std::vector<float> weights_;
};

/** See file comment. */
class MdsWorkload : public Workload
{
  public:
    explicit MdsWorkload(const MdsParams& params = MdsParams::scaled(1.0));

    std::string name() const override { return "MDS"; }
    std::string description() const override
    {
        return "multi-document summarization: LexRank power iteration "
               "over a compressed similarity matrix + MMR selection";
    }

    void setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override;
    std::unique_ptr<ThreadTask> createThread(unsigned tid) override;
    bool verify() override;

    const MdsParams& params() const { return params_; }

    /** The selected summary (post-run), in selection order. */
    const std::vector<std::uint32_t>& summary() const { return summary_; }

    /** Final rank vector (post-run). */
    const std::vector<float> rankVector() const;

    /** Host-side reference power iteration (verify and tests). */
    std::vector<float> referenceRank() const;

  private:
    friend class MdsTask;

    void advancePhase();

    MdsParams params_;
    unsigned nThreads_ = 1;

    SimilarityRows matrix_;             ///< host form (shared)
    Addr matrixBase_ = 0;               ///< the simulated packed pairs
    SimArray<std::uint32_t> rowPtr_;
    SimArray<float> rank_;              ///< current rank vector
    SimArray<float> rankNext_;
    SimArray<float> queryAffinity_;     ///< per-sentence query relevance

    enum class Phase { Power, Mmr, Done };
    Phase phase_ = Phase::Power;
    unsigned iter_ = 0;
    std::uint64_t phaseGen_ = 0;
    PhaseBarrier barrier_;

    std::vector<std::uint32_t> summary_;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_MDS_HH
