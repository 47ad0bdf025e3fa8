/**
 * @file
 * Tests for the synthetic data generators: distributions, planted
 * structure, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "workloads/data/synth.hh"
#include "workloads/data/video.hh"
#include "workloads/mds.hh"
#include "workloads/shot.hh"

namespace cosim {
namespace {

/** The sample-by-sample strided genotype loop the tiled one replaced. */
std::vector<std::uint8_t>
stridedGenotypeChain(std::size_t n_vars, std::size_t n_samples,
                     double dependence, Rng& rng)
{
    std::vector<std::uint8_t> geno(n_vars * n_samples);
    for (std::size_t s = 0; s < n_samples; ++s) {
        std::uint8_t prev = static_cast<std::uint8_t>(rng.nextBounded(3));
        geno[s] = prev;
        for (std::size_t v = 1; v < n_vars; ++v) {
            std::uint8_t g = rng.nextBool(dependence)
                ? prev
                : static_cast<std::uint8_t>(rng.nextBounded(3));
            geno[v * n_samples + s] = g;
            prev = g;
        }
    }
    return geno;
}

/** A packed CSR entry: column in the low 32 bits, weight's bits above. */
std::uint64_t
packEntry(std::uint32_t col, float w)
{
    std::uint32_t wb;
    static_assert(sizeof(wb) == sizeof(w), "float packs into u32");
    std::memcpy(&wb, &w, 4);
    return static_cast<std::uint64_t>(wb) << 32 | col;
}

/**
 * MDS's matrix as three passes built it, packed as the simulated matrix
 * lays it out: generate columns and weights for every row, row-normalize
 * in a second sweep, then pack.
 */
std::vector<std::uint64_t>
threePassSimilarityMatrix(std::size_t n_rows, std::size_t nnz_per_row,
                          Rng& rng)
{
    std::vector<std::uint32_t> row_ptr(n_rows + 1, 0);
    std::vector<std::uint32_t> col;
    std::vector<float> val;
    for (std::size_t r = 0; r < n_rows; ++r) {
        std::size_t offset =
            (r * 2654435761ull + rng.nextBounded(97)) % n_rows;
        for (std::size_t k = 0; k < nnz_per_row; ++k) {
            std::size_t c = (offset + k * n_rows / nnz_per_row) % n_rows;
            col.push_back(static_cast<std::uint32_t>(c));
            val.push_back(
                static_cast<float>(0.05 + 0.95 * rng.nextDouble()));
        }
        row_ptr[r + 1] = static_cast<std::uint32_t>(col.size());
    }
    for (std::size_t r = 0; r < n_rows; ++r) {
        double sum = 0.0;
        for (std::uint32_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
            sum += val[i];
        if (sum <= 0.0)
            continue;
        for (std::uint32_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i)
            val[i] = static_cast<float>(val[i] / sum);
    }
    std::vector<std::uint64_t> packed(col.size());
    for (std::size_t i = 0; i < col.size(); ++i)
        packed[i] = packEntry(col[i], val[i]);
    return packed;
}

TEST(GenotypeChain, ShapeAndValues)
{
    Rng rng(1);
    auto g = synth::genotypeChain(8, 1000, 0.9, rng);
    ASSERT_EQ(g.size(), 8000u);
    for (auto v : g)
        EXPECT_LT(v, 3);
}

TEST(GenotypeChain, AdjacentVariablesCorrelate)
{
    Rng rng(2);
    std::size_t n = 20000;
    auto g = synth::genotypeChain(4, n, 0.9, rng);
    std::size_t agree_adjacent = 0;
    std::size_t agree_far = 0;
    for (std::size_t s = 0; s < n; ++s) {
        agree_adjacent += g[0 * n + s] == g[1 * n + s] ? 1 : 0;
        agree_far += g[0 * n + s] == g[3 * n + s] ? 1 : 0;
    }
    // Dependence 0.9: adjacent agreement ~93%; at distance 3 it decays.
    EXPECT_GT(agree_adjacent, n * 85 / 100);
    EXPECT_LT(agree_far, agree_adjacent);
}

TEST(GenotypeChain, Deterministic)
{
    Rng a(7);
    Rng b(7);
    EXPECT_EQ(synth::genotypeChain(4, 100, 0.5, a),
              synth::genotypeChain(4, 100, 0.5, b));
}

TEST(GenotypeChain, TiledMatchesStridedLoop)
{
    // Sample counts below, at, past and far past the 64-sample tile,
    // so a short last tile is covered.
    for (std::size_t n_vars : {1u, 512u}) {
        for (std::size_t n_samples : {1u, 63u, 65u, 1000u}) {
            Rng tiled(n_vars * 7919 + n_samples);
            Rng strided(n_vars * 7919 + n_samples);
            EXPECT_EQ(synth::genotypeChain(n_vars, n_samples, 0.9, tiled),
                      stridedGenotypeChain(n_vars, n_samples, 0.9, strided))
                << n_vars << " x " << n_samples;
            EXPECT_EQ(tiled.next(), strided.next())
                << n_vars << " x " << n_samples;
        }
    }
}

TEST(GeneExpression, InformativeGenesSeparateClasses)
{
    Rng rng(3);
    std::vector<int> labels;
    auto x = synth::geneExpression(100, 50, 10, 1.0, rng, labels);
    ASSERT_EQ(labels.size(), 100u);

    // Mean difference between classes on an informative vs a noise gene.
    auto class_gap = [&](std::size_t gene) {
        double pos = 0.0;
        double neg = 0.0;
        int npos = 0;
        int nneg = 0;
        for (std::size_t i = 0; i < 100; ++i) {
            if (labels[i] > 0) {
                pos += x[i * 50 + gene];
                ++npos;
            } else {
                neg += x[i * 50 + gene];
                ++nneg;
            }
        }
        return pos / npos - neg / nneg;
    };
    EXPECT_GT(class_gap(0), 1.0);   // informative: ~2.0 apart
    EXPECT_LT(std::fabs(class_gap(40)), 0.8); // noise: ~0
}

TEST(NucleotideDatabase, PlantsReverseComplementStems)
{
    Rng rng(4);
    std::vector<std::size_t> planted;
    std::size_t stem = 6;
    auto db = synth::nucleotideDatabase(8192, stem, 1024, rng, planted);
    ASSERT_FALSE(planted.empty());
    std::size_t hp_len = 2 * stem + 4;
    for (std::size_t pos : planted) {
        for (std::size_t k = 0; k < stem; ++k) {
            EXPECT_EQ(db[pos + k] + db[pos + hp_len - 1 - k], 3)
                << "stem pair " << k << " at " << pos;
        }
    }
}

TEST(AlignmentPair, PlantsExactCommonRegion)
{
    Rng rng(5);
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
    synth::alignmentPair(1000, 1000, 100, 200, 500, rng, a, b);
    for (std::size_t k = 0; k < 100; ++k)
        EXPECT_EQ(a[200 + k], b[500 + k]);
}

TEST(Transactions, SortedDedupedAndSkewed)
{
    synth::TransactionParams p;
    p.nTransactions = 5000;
    p.nItems = 200;
    p.avgLength = 8;
    p.maxLength = 16;
    Rng rng(6);
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint16_t> items;
    synth::transactions(p, rng, offsets, items);

    ASSERT_EQ(offsets.size(), 5001u);
    std::vector<std::size_t> freq(p.nItems, 0);
    for (std::size_t t = 0; t + 1 < offsets.size(); ++t) {
        EXPECT_LE(offsets[t + 1] - offsets[t], p.maxLength);
        for (std::uint32_t k = offsets[t]; k < offsets[t + 1]; ++k) {
            if (k > offsets[t]) {
                EXPECT_LT(items[k - 1], items[k]); // sorted, deduped
            }
            ASSERT_LT(items[k], p.nItems);
            ++freq[items[k]];
        }
    }
    // Zipf head: item 0 far more popular than mid-tail items.
    EXPECT_GT(freq[0], 8 * std::max<std::size_t>(1, freq[100]));
}

TEST(SimilarityCsr, RowStructureAndNormalization)
{
    Rng rng(8);
    const SimilarityRows matrix(64, 256, rng);

    for (std::size_t r = 0; r < 64; ++r) {
        std::size_t entries = 0;
        double sum = 0.0;
        matrix.forEachEntry(r, [&](std::uint32_t col, float w) {
            ++entries;
            ASSERT_LT(col, 64u);
            ASSERT_GT(w, 0.0f);
            sum += w;
        });
        EXPECT_EQ(entries, 256u);
        EXPECT_NEAR(sum, 1.0, 1e-4); // row-stochastic
    }
}

TEST(SimilarityCsr, OnePassMatchesThreePasses)
{
    // More entries than rows (as at full scale), fewer, and a row count
    // that is not a power of two.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {64, 256}, {2048, 64}, {1000, 96}};
    for (const auto& [n_rows, nnz] : shapes) {
        Rng one(n_rows + nnz);
        Rng three(n_rows + nnz);
        const SimilarityRows matrix(n_rows, nnz, one);
        std::vector<std::uint64_t> visited;
        for (std::size_t r = 0; r < n_rows; ++r) {
            matrix.forEachEntry(r, [&](std::uint32_t col, float w) {
                visited.push_back(packEntry(col, w));
            });
        }
        EXPECT_TRUE(visited == threePassSimilarityMatrix(n_rows, nnz, three))
            << n_rows << " x " << nnz;
        // The draws that follow the matrix (query affinities) see the
        // same generator state.
        EXPECT_EQ(one.next(), three.next()) << n_rows << " x " << nnz;
    }
}

// ------------------------------------------------------------- video

TEST(Video, PixelFunctionIsPure)
{
    synth::VideoParams vp{64, 48, 20, 5};
    synth::FrameSynthesizer a(vp, 42);
    synth::FrameSynthesizer b(vp, 42);
    for (unsigned f : {0u, 7u, 19u})
        for (unsigned y = 0; y < 48; y += 7)
            for (unsigned x = 0; x < 64; x += 5)
                EXPECT_EQ(a.pixel(f, x, y), b.pixel(f, x, y));
}

TEST(Video, RowMatchesPixel)
{
    // Full-scale 720x576, CIF and QCIF frames, as ShotParams::scaled
    // picks them; every frame walks all four view types, so rows on
    // both sides of the playfield edge and through the blob are covered.
    for (double scale : {1.0, 0.5, 0.05}) {
        const synth::VideoParams vp = ShotParams::scaled(scale).video;
        synth::FrameSynthesizer s(vp, 42);
        std::vector<synth::Pixel> row(vp.width);
        std::vector<synth::Pixel> pixels(vp.width);
        for (unsigned f = 0; f < vp.nFrames; ++f) {
            for (unsigned y = 0; y < vp.height; ++y) {
                s.row(f, y, row.data());
                for (unsigned x = 0; x < vp.width; ++x)
                    pixels[x] = s.pixel(f, x, y);
                auto bad = std::mismatch(row.begin(), row.end(),
                                         pixels.begin());
                ASSERT_TRUE(bad.first == row.end())
                    << vp.width << "x" << vp.height << " frame " << f
                    << " at (" << bad.first - row.begin() << ", " << y
                    << ")";
            }
        }
    }
}

TEST(Video, ShotIndexAndCuts)
{
    synth::VideoParams vp{64, 48, 20, 5};
    synth::FrameSynthesizer s(vp, 1);
    EXPECT_EQ(s.shotIndex(0), 0u);
    EXPECT_EQ(s.shotIndex(4), 0u);
    EXPECT_EQ(s.shotIndex(5), 1u);
    EXPECT_FALSE(s.isCut(0));
    EXPECT_TRUE(s.isCut(5));
    EXPECT_FALSE(s.isCut(6));
    EXPECT_TRUE(s.isCut(10));
}

TEST(Video, PlayfieldFractionMatchesPlantedViewType)
{
    synth::VideoParams vp{128, 96, 40, 5};
    synth::FrameSynthesizer s(vp, 9);
    for (unsigned f : {0u, 5u, 10u, 15u}) {
        synth::ViewType view = s.plannedView(f);
        std::size_t field = 0;
        for (unsigned y = 0; y < vp.height; ++y)
            for (unsigned x = 0; x < vp.width; ++x)
                field += synth::isPlayfieldHue(s.pixel(f, x, y)) ? 1 : 0;
        double frac = static_cast<double>(field) /
                      (static_cast<double>(vp.width) * vp.height);
        double expected = synth::FrameSynthesizer::playfieldFraction(view);
        EXPECT_NEAR(frac, expected, 0.08)
            << "frame " << f << " view " << synth::toString(view);
    }
}

TEST(Video, BackgroundIsNeverGreenDominant)
{
    // The playfield detector must only fire on playfield pixels; check
    // out-of-view frames (no field at all) across several shots/seeds.
    synth::VideoParams vp{96, 64, 80, 5};
    for (std::uint64_t seed : {1ull, 22ull, 333ull}) {
        synth::FrameSynthesizer s(vp, seed);
        for (unsigned f = 0; f < vp.nFrames; f += 5) {
            if (s.plannedView(f) != synth::ViewType::OutOfView)
                continue;
            for (unsigned y = 0; y < vp.height; y += 3)
                for (unsigned x = 0; x < vp.width; x += 3)
                    EXPECT_FALSE(synth::isPlayfieldHue(s.pixel(f, x, y)));
        }
    }
}

TEST(Video, CutChangesHistogramMoreThanDrift)
{
    synth::VideoParams vp{96, 64, 20, 5};
    synth::FrameSynthesizer s(vp, 77);

    auto histogram = [&](unsigned f) {
        std::vector<int> h(48, 0);
        for (unsigned y = 0; y < vp.height; ++y) {
            for (unsigned x = 0; x < vp.width; ++x) {
                synth::Pixel p = s.pixel(f, x, y);
                ++h[synth::pixelR(p) >> 4];
                ++h[16 + (synth::pixelG(p) >> 4)];
                ++h[32 + (synth::pixelB(p) >> 4)];
            }
        }
        return h;
    };
    auto dist = [](const std::vector<int>& a, const std::vector<int>& b) {
        long d = 0;
        for (std::size_t k = 0; k < a.size(); ++k)
            d += std::labs(a[k] - b[k]);
        return d;
    };

    auto h1 = histogram(1);
    auto h2 = histogram(2); // same shot: drift only
    auto h5 = histogram(5); // new shot: planted cut
    EXPECT_GT(dist(h2, h5), 4 * dist(h1, h2));
}

TEST(Video, HueMath)
{
    // Pure green has hue ~85/256; red ~0; blue ~170.
    synth::Pixel green = 0x0000ff00 >> 0; // g=255
    EXPECT_NEAR(synth::hueOf(0x00ff00u << 0), 85, 3); // packed g byte
    EXPECT_EQ(synth::hueOf(0x000000ffu), 0);          // pure red
    EXPECT_NEAR(synth::hueOf(0x00ff0000u), 170, 3);   // pure blue
    (void)green;
}

TEST(Video, ViewTypeNames)
{
    EXPECT_STREQ(synth::toString(synth::ViewType::Global), "global");
    EXPECT_STREQ(synth::toString(synth::ViewType::OutOfView),
                 "out-of-view");
}

} // namespace
} // namespace cosim
