/**
 * @file
 * Synthetic dataset generators.
 *
 * The paper's inputs (HGBASE SNP sequences, cancer micro-arrays, GenBank
 * sequences, the Kosarak click-stream, web-search documents) are not
 * redistributable; these generators produce deterministic synthetic
 * equivalents that preserve the memory-relevant structure of each input:
 * value distributions, planted signal for verification, and footprints
 * that put working-set knees where the paper reports them.
 */

#ifndef COSIM_WORKLOADS_DATA_SYNTH_HH
#define COSIM_WORKLOADS_DATA_SYNTH_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"

namespace cosim {
namespace synth {

/**
 * Genotype matrix for SNP: @p n_vars variables x @p n_samples samples of
 * values {0,1,2}, generated from a planted Markov chain: variable v
 * copies variable v-1 with probability @p dependence, else is uniform.
 * Stored variable-major (one contiguous column of samples per variable).
 */
std::vector<std::uint8_t> genotypeChain(std::size_t n_vars,
                                        std::size_t n_samples,
                                        double dependence, Rng& rng);

/**
 * Two-class gene expression matrix for SVM-RFE (@p n_samples rows x
 * @p n_genes columns, row-major floats). The first @p n_informative genes
 * are shifted by +/- @p shift according to the sample's class; the rest
 * are pure noise. Returns the matrix; @p labels_out receives +/-1 labels.
 */
std::vector<float> geneExpression(std::size_t n_samples,
                                  std::size_t n_genes,
                                  std::size_t n_informative, double shift,
                                  Rng& rng, std::vector<int>& labels_out);

/**
 * A random nucleotide database (values 0..3) for RSEARCH, with hairpin
 * structures (a stem of @p stem_len reverse-complement pairs) planted
 * every @p hairpin_spacing bases. Planted positions are appended to
 * @p planted_out.
 */
std::vector<std::uint8_t> nucleotideDatabase(
    std::size_t length, std::size_t stem_len, std::size_t hairpin_spacing,
    Rng& rng, std::vector<std::size_t>& planted_out);

/**
 * A pair of DNA sequences for PLSA with a shared (exactly common)
 * subsequence of @p common_len planted at @p pos_a / @p pos_b.
 */
void alignmentPair(std::size_t len_a, std::size_t len_b,
                   std::size_t common_len, std::size_t pos_a,
                   std::size_t pos_b, Rng& rng,
                   std::vector<std::uint8_t>& a_out,
                   std::vector<std::uint8_t>& b_out);

/** Transaction database parameters for FIMI. */
struct TransactionParams
{
    std::size_t nTransactions = 100000;
    std::size_t nItems = 4000;
    std::size_t avgLength = 10;
    std::size_t maxLength = 24;
    double zipfS = 1.05; ///< Kosarak-like popularity skew
};

/**
 * Kosarak-like transactions: Zipf-distributed item popularity, variable
 * transaction lengths, items within a transaction sorted ascending and
 * de-duplicated. Flattened: @p offsets_out[i] .. offsets_out[i+1] indexes
 * @p items_out.
 */
void transactions(const TransactionParams& params, Rng& rng,
                  std::vector<std::uint32_t>& offsets_out,
                  std::vector<std::uint16_t>& items_out);

} // namespace synth
} // namespace cosim

#endif // COSIM_WORKLOADS_DATA_SYNTH_HH
