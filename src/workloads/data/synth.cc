#include "workloads/data/synth.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace cosim {
namespace synth {

std::vector<std::uint8_t>
genotypeChain(std::size_t n_vars, std::size_t n_samples, double dependence,
              Rng& rng)
{
    fatal_if(n_vars == 0 || n_samples == 0, "empty genotype matrix");
    std::vector<std::uint8_t> geno(n_vars * n_samples);

    // The chain runs sample by sample down the variables, but the matrix
    // is variable-major, so one sample's bytes land n_samples apart.
    // Generate a tile of samples sample-major, then copy each variable's
    // run of the tile out contiguously.
    constexpr std::size_t tile = 64;
    std::vector<std::uint8_t> buf(tile * n_vars);
    for (std::size_t s0 = 0; s0 < n_samples; s0 += tile) {
        const std::size_t width = std::min(tile, n_samples - s0);
        for (std::size_t t = 0; t < width; ++t) {
            std::uint8_t* chain = &buf[t * n_vars];
            std::uint8_t prev = static_cast<std::uint8_t>(rng.nextBounded(3));
            chain[0] = prev;
            for (std::size_t v = 1; v < n_vars; ++v) {
                std::uint8_t g = rng.nextBool(dependence)
                    ? prev
                    : static_cast<std::uint8_t>(rng.nextBounded(3));
                chain[v] = g;
                prev = g;
            }
        }
        for (std::size_t v = 0; v < n_vars; ++v) {
            std::uint8_t* run = &geno[v * n_samples + s0];
            for (std::size_t t = 0; t < width; ++t)
                run[t] = buf[t * n_vars + v];
        }
    }
    return geno;
}

std::vector<float>
geneExpression(std::size_t n_samples, std::size_t n_genes,
               std::size_t n_informative, double shift, Rng& rng,
               std::vector<int>& labels_out)
{
    fatal_if(n_informative > n_genes,
             "more informative genes than genes");
    std::vector<float> x(n_samples * n_genes);
    labels_out.resize(n_samples);

    for (std::size_t i = 0; i < n_samples; ++i) {
        int label = (i % 2 == 0) ? 1 : -1;
        labels_out[i] = label;
        for (std::size_t g = 0; g < n_genes; ++g) {
            double v = rng.nextGaussian(0.0, 1.0);
            if (g < n_informative)
                v += label * shift;
            x[i * n_genes + g] = static_cast<float>(v);
        }
    }
    return x;
}

std::vector<std::uint8_t>
nucleotideDatabase(std::size_t length, std::size_t stem_len,
                   std::size_t hairpin_spacing, Rng& rng,
                   std::vector<std::size_t>& planted_out)
{
    fatal_if(length == 0, "empty database");
    std::vector<std::uint8_t> db(length);
    for (auto& base : db)
        base = static_cast<std::uint8_t>(rng.nextBounded(4));

    // Plant hairpins: stem (s), loop of 4, reverse complement of stem.
    std::size_t hp_len = 2 * stem_len + 4;
    if (hairpin_spacing == 0 || hp_len == 0 || hp_len >= length)
        return db;
    for (std::size_t pos = hairpin_spacing / 2;
         pos + hp_len < length; pos += hairpin_spacing) {
        for (std::size_t k = 0; k < stem_len; ++k) {
            std::uint8_t b = db[pos + k];
            // complement: A<->U (0<->3), C<->G (1<->2)
            db[pos + hp_len - 1 - k] = static_cast<std::uint8_t>(3 - b);
        }
        planted_out.push_back(pos);
    }
    return db;
}

void
alignmentPair(std::size_t len_a, std::size_t len_b, std::size_t common_len,
              std::size_t pos_a, std::size_t pos_b, Rng& rng,
              std::vector<std::uint8_t>& a_out,
              std::vector<std::uint8_t>& b_out)
{
    fatal_if(pos_a + common_len > len_a || pos_b + common_len > len_b,
             "planted common subsequence does not fit");
    a_out.resize(len_a);
    b_out.resize(len_b);
    for (auto& c : a_out)
        c = static_cast<std::uint8_t>(rng.nextBounded(4));
    for (auto& c : b_out)
        c = static_cast<std::uint8_t>(rng.nextBounded(4));
    for (std::size_t k = 0; k < common_len; ++k)
        b_out[pos_b + k] = a_out[pos_a + k];
}

void
transactions(const TransactionParams& params, Rng& rng,
             std::vector<std::uint32_t>& offsets_out,
             std::vector<std::uint16_t>& items_out)
{
    fatal_if(params.nItems == 0 || params.nItems > 65536,
             "item universe must fit in uint16");
    fatal_if(params.avgLength == 0 || params.maxLength < params.avgLength,
             "bad transaction lengths");

    offsets_out.clear();
    items_out.clear();
    offsets_out.reserve(params.nTransactions + 1);
    items_out.reserve(params.nTransactions * params.avgLength);
    offsets_out.push_back(0);

    std::vector<std::uint16_t> txn;
    for (std::size_t t = 0; t < params.nTransactions; ++t) {
        // Length in [1, maxLength], mean ~ avgLength.
        std::size_t len = 1 + rng.nextBounded(2 * params.avgLength - 1);
        len = std::min(len, params.maxLength);

        txn.clear();
        for (std::size_t k = 0; k < len; ++k) {
            txn.push_back(static_cast<std::uint16_t>(
                rng.nextZipf(params.nItems, params.zipfS)));
        }
        std::sort(txn.begin(), txn.end());
        txn.erase(std::unique(txn.begin(), txn.end()), txn.end());

        items_out.insert(items_out.end(), txn.begin(), txn.end());
        offsets_out.push_back(
            static_cast<std::uint32_t>(items_out.size()));
    }
}

} // namespace synth
} // namespace cosim
