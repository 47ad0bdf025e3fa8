/**
 * @file
 * FSB stream format tests: encode/decode roundtrips over adversarial
 * transaction sequences, header patching, the digest's value against a
 * byte-at-a-time FNV-1a, the digest manifest, and -- most importantly --
 * malformed-stream handling. A truncated, tampered or wrong-format file
 * must produce a clear error through the reader API, never undefined
 * behaviour or a crash.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "mem/access.hh"
#include "trace/fsb_capture.hh"

namespace cosim {
namespace {

FsbStreamMeta
testMeta()
{
    FsbStreamMeta meta;
    meta.workload = "testwl";
    meta.platform = "testCMP";
    meta.nCores = 4;
    meta.seed = 1234;
    meta.scale = 0.25;
    return meta;
}

BusTransaction
txn(Addr addr, std::uint32_t size, TxnKind kind, CoreId core)
{
    BusTransaction t;
    t.addr = addr;
    t.size = size;
    t.kind = kind;
    t.core = core;
    return t;
}

/** An adversarial sequence: address jumps in both directions, extreme
 * values, repeated and changing sizes/cores, every kind, messages with
 * payload encoded in high address bits. */
std::vector<BusTransaction>
adversarialStream()
{
    std::vector<BusTransaction> txns;
    txns.push_back(txn(0x1000, 64, TxnKind::ReadLine, 0));
    txns.push_back(txn(0x1040, 64, TxnKind::ReadLine, 0));  // +delta
    txns.push_back(txn(0x0fc0, 64, TxnKind::WriteLine, 0)); // -delta
    txns.push_back(txn(0, 64, TxnKind::ReadLine, 1));       // to zero
    txns.push_back(
        txn(0xffffffffffffffffull, 64, TxnKind::Prefetch, 1)); // max addr
    txns.push_back(txn(1, 4096, TxnKind::ReadLine, 1));     // huge size
    txns.push_back(txn(0xDA6D000000000001ull, 0, TxnKind::Message,
                       invalidCoreId));                     // message
    txns.push_back(txn(0xDA6D000000000002ull, 0, TxnKind::Message,
                       invalidCoreId));
    txns.push_back(txn(0x2000, 64, TxnKind::ReadLine, 3));
    for (unsigned i = 0; i < 100; ++i) {
        // A run with stable size/core exercising the repeat bits.
        txns.push_back(txn(0x4000 + 64ull * i, 64, TxnKind::ReadLine,
                           static_cast<CoreId>(i % 4)));
    }
    return txns;
}

std::vector<std::uint8_t>
encode(const std::vector<BusTransaction>& txns, std::size_t chunk_txns)
{
    FsbStreamWriter writer(testMeta(), chunk_txns);
    writer.appendBatch(txns.data(), txns.size());
    writer.setResult(777, true);
    writer.finish();
    return *writer.share();
}

/** Drain a reader to the end; returns the decoded stream. */
std::vector<BusTransaction>
drain(FsbStreamReader& reader)
{
    std::vector<BusTransaction> all, chunk;
    while (reader.nextChunk(chunk))
        all.insert(all.end(), chunk.begin(), chunk.end());
    return all;
}

std::unique_ptr<FsbStreamReader>
openBytes(std::vector<std::uint8_t> bytes)
{
    auto reader = std::make_unique<FsbStreamReader>();
    reader->openBuffer(
        std::make_shared<const std::vector<std::uint8_t>>(
            std::move(bytes)));
    return reader;
}

/** Decode @p bytes fully; returns the reader for error inspection. */
std::unique_ptr<FsbStreamReader>
decodeAll(std::vector<std::uint8_t> bytes,
          std::vector<BusTransaction>* out = nullptr)
{
    auto reader = openBytes(std::move(bytes));
    std::vector<BusTransaction> txns = drain(*reader);
    if (out)
        *out = std::move(txns);
    return reader;
}

TEST(FsbCapture, RoundTripIsExact)
{
    std::vector<BusTransaction> in = adversarialStream();
    std::vector<BusTransaction> out;
    auto reader = decodeAll(encode(in, 16), &out);

    EXPECT_TRUE(reader->ok()) << reader->error();
    EXPECT_TRUE(reader->atEnd());
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].addr, in[i].addr) << "txn " << i;
        EXPECT_EQ(out[i].size, in[i].size) << "txn " << i;
        EXPECT_EQ(out[i].kind, in[i].kind) << "txn " << i;
        EXPECT_EQ(out[i].core, in[i].core) << "txn " << i;
    }
}

TEST(FsbCapture, ChunkSizeDoesNotChangeContentOrDigest)
{
    std::vector<BusTransaction> in = adversarialStream();
    std::vector<BusTransaction> a, b;
    auto ra = decodeAll(encode(in, 1), &a);
    auto rb = decodeAll(encode(in, 4096), &b);
    EXPECT_TRUE(ra->ok()) << ra->error();
    EXPECT_TRUE(rb->ok()) << rb->error();
    ASSERT_EQ(a.size(), in.size());
    ASSERT_EQ(b.size(), in.size());
    EXPECT_EQ(ra->contentDigest(), rb->contentDigest());
}

TEST(FsbCapture, DigestMatchesWriterReaderAndStandalone)
{
    std::vector<BusTransaction> in = adversarialStream();

    FsbDigest standalone;
    standalone.update(in.data(), in.size());

    FsbStreamWriter writer(testMeta(), 8);
    writer.appendBatch(in.data(), in.size());
    writer.finish();
    EXPECT_EQ(writer.digest(), standalone.value());
    EXPECT_EQ(writer.txnCount(), in.size());

    auto reader = openBytes(*writer.share());
    drain(*reader);
    EXPECT_TRUE(reader->ok()) << reader->error();
    EXPECT_EQ(reader->contentDigest(), standalone.value());
    EXPECT_EQ(reader->txnsDecoded(), in.size());
}

/** FNV-1a over each canonical tuple -- addr (8B LE), size (4B LE),
 * kind (1B), core (2B LE) -- a byte at a time: the digest's definition,
 * written apart from the arithmetic FsbDigest folds it into. */
std::uint64_t
bytewiseFnv1a(const std::vector<BusTransaction>& txns)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const BusTransaction& t : txns) {
        std::uint8_t bytes[15];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(t.addr >> (8 * i));
        for (int i = 0; i < 4; ++i)
            bytes[8 + i] = static_cast<std::uint8_t>(t.size >> (8 * i));
        bytes[12] = static_cast<std::uint8_t>(t.kind);
        bytes[13] = static_cast<std::uint8_t>(t.core);
        bytes[14] = static_cast<std::uint8_t>(t.core >> 8);
        for (std::uint8_t b : bytes) {
            hash ^= b;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

std::uint64_t
fsbDigestOf(const std::vector<BusTransaction>& txns)
{
    FsbDigest digest;
    digest.update(txns.data(), txns.size());
    return digest.value();
}

TEST(FsbDigest, MatchesBytewiseFnv1aOnEveryBoundary)
{
    // Each side of the 32-bit address, one-byte size and one-byte core
    // limits, every kind, and a message address.
    const Addr addrs[] = {0,
                          0xffffffffull,
                          0x100000000ull,
                          std::uint64_t{1} << 40,
                          0xffffffffffffffffull,
                          0xDA6D000000000001ull};
    const std::uint32_t sizes[] = {0, 64, 255, 256, 0xffffffffu};
    const CoreId cores[] = {0, 255, 256, invalidCoreId};
    const TxnKind kinds[] = {TxnKind::ReadLine, TxnKind::WriteLine,
                             TxnKind::Prefetch, TxnKind::Message};
    std::vector<BusTransaction> all;
    for (Addr addr : addrs) {
        for (std::uint32_t size : sizes) {
            for (CoreId core : cores) {
                for (TxnKind kind : kinds) {
                    const BusTransaction t = txn(addr, size, kind, core);
                    EXPECT_EQ(fsbDigestOf({t}), bytewiseFnv1a({t}))
                        << std::hex << "addr 0x" << addr << " size 0x"
                        << size << " core 0x" << core << " kind "
                        << static_cast<int>(kind);
                    all.push_back(t);
                }
            }
        }
    }
    EXPECT_EQ(fsbDigestOf(all), bytewiseFnv1a(all));
}

TEST(FsbDigest, MatchesBytewiseFnv1aOnRandomTuples)
{
    // Every field drawn on both sides of its limit, as one stream.
    Rng rng(20240607);
    const auto draw = [&](std::uint64_t limit, std::uint64_t max) {
        if (rng.nextBool())
            return rng.nextBounded(limit + 1);
        return limit + 1 + rng.nextBounded(max - limit);
    };
    std::vector<BusTransaction> txns;
    for (int i = 0; i < 100000; ++i) {
        BusTransaction t;
        t.addr = rng.nextBool() ? rng.nextBounded(0x100000000ull)
                                : 0x100000000ull | rng.next();
        t.size = static_cast<std::uint32_t>(draw(0xff, 0xffffffffu));
        t.kind = static_cast<TxnKind>(rng.nextBounded(4));
        t.core = static_cast<CoreId>(draw(0xff, 0xffff));
        txns.push_back(t);
    }
    EXPECT_EQ(fsbDigestOf(txns), bytewiseFnv1a(txns));
}

TEST(FsbDigest, FixedStreamHasItsPinnedValue)
{
    // The value committed goldens depend on, written out.
    const std::vector<BusTransaction> txns = {
        txn(0x1000, 64, TxnKind::ReadLine, 0),
        txn(0xDA6D000000000001ull, 0, TxnKind::Message, invalidCoreId),
        txn(0x100000040ull, 256, TxnKind::WriteLine, 300)};
    EXPECT_EQ(fsbDigestOf(txns), 0xba694c0a500de5caull);
    EXPECT_EQ(bytewiseFnv1a(txns), 0xba694c0a500de5caull);
}

TEST(FsbCapture, HeaderCarriesMetaAndPatchedResult)
{
    auto reader = openBytes(encode(adversarialStream(), 64));
    const FsbStreamMeta& meta = reader->meta();
    EXPECT_EQ(meta.workload, "testwl");
    EXPECT_EQ(meta.platform, "testCMP");
    EXPECT_EQ(meta.nCores, 4u);
    EXPECT_EQ(meta.seed, 1234u);
    EXPECT_DOUBLE_EQ(meta.scale, 0.25);
    EXPECT_EQ(meta.totalInsts, 777u); // patched by setResult()
    EXPECT_TRUE(meta.verified);
}

TEST(FsbCapture, EmptyStreamRoundTrips)
{
    FsbStreamWriter writer(testMeta());
    writer.finish();
    std::vector<BusTransaction> out;
    auto reader = decodeAll(*writer.share(), &out);
    EXPECT_TRUE(reader->ok()) << reader->error();
    EXPECT_TRUE(reader->atEnd());
    EXPECT_TRUE(out.empty());
}

TEST(FsbCapture, FileRoundTripAndProbe)
{
    std::string path = testing::TempDir() + "fsb_capture_roundtrip.fsb";
    std::vector<BusTransaction> in = adversarialStream();
    FsbStreamWriter writer(testMeta(), 32);
    writer.appendBatch(in.data(), in.size());
    writer.setResult(42, false);
    writer.writeFile(path);

    FsbStreamInfo info;
    std::string error;
    ASSERT_TRUE(probeFsbStream(path, info, &error)) << error;
    EXPECT_EQ(info.meta.workload, "testwl");
    EXPECT_EQ(info.meta.totalInsts, 42u);
    EXPECT_FALSE(info.meta.verified);
    EXPECT_EQ(info.txns, in.size());
    EXPECT_EQ(info.digest, writer.digest());
    EXPECT_GT(info.fileBytes, 0u);

    std::vector<BusTransaction> out;
    FsbStreamMeta meta;
    ASSERT_TRUE(loadFsbStream(path, out, meta, &error)) << error;
    EXPECT_EQ(out.size(), in.size());
    std::remove(path.c_str());
}

TEST(FsbCapture, CompressionBeatsRawTuples)
{
    // The varint-delta encoding exists for a reason: the mostly-
    // sequential stream above must encode well below the 15-byte raw
    // tuple size.
    std::vector<BusTransaction> in = adversarialStream();
    std::vector<std::uint8_t> bytes = encode(in, 4096);
    EXPECT_LT(bytes.size(), in.size() * 15);
}

// --- malformed streams ---------------------------------------------------

TEST(FsbCaptureMalformed, BadMagic)
{
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 64);
    bytes[0] = 'X';
    auto reader = decodeAll(std::move(bytes));
    EXPECT_FALSE(reader->ok());
    EXPECT_NE(reader->error().find("bad magic"), std::string::npos)
        << reader->error();
}

TEST(FsbCaptureMalformed, UnsupportedVersion)
{
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 64);
    bytes[4] = 0x63; // version 99
    auto reader = decodeAll(std::move(bytes));
    EXPECT_FALSE(reader->ok());
    EXPECT_NE(reader->error().find("unsupported FSB stream version"),
              std::string::npos)
        << reader->error();
}

TEST(FsbCaptureMalformed, TruncationAtEveryPrefixIsAnError)
{
    // Cut the stream at every possible length -- which includes every
    // chunk boundary: no prefix may decode cleanly (the trailer is
    // mandatory), none may crash, and every error is positioned so the
    // corrupt byte can be found.
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 16);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() + cut);
        auto reader = decodeAll(std::move(prefix));
        EXPECT_FALSE(reader->ok() && reader->atEnd())
            << "prefix of " << cut << " bytes decoded cleanly";
        EXPECT_FALSE(reader->error().empty()) << "cut=" << cut;
        EXPECT_NE(reader->error().find("byte offset"),
                  std::string::npos)
            << "cut=" << cut << ": " << reader->error();
    }
}

TEST(FsbCaptureMalformed, EveryHeaderBitFlipIsHandled)
{
    // Flip every bit of the 48 fixed header bytes and the two length-
    // prefixed strings. Each mutation must either fail with a
    // positioned error or -- for fields that do not affect decoding,
    // like the seed or the result counters -- still decode the exact
    // original payload. Never a crash, hang, or silent short read.
    const std::vector<BusTransaction> in = adversarialStream();
    const std::vector<std::uint8_t> bytes = encode(in, 16);

    FsbDigest ref;
    ref.update(in.data(), in.size());

    const std::size_t header_end = 48 + 7 + 8; // fixed + strings
    ASSERT_LT(header_end, bytes.size());
    for (std::size_t byte = 0; byte < header_end; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> corrupt = bytes;
            corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
            std::vector<BusTransaction> out;
            auto reader = decodeAll(std::move(corrupt), &out);
            if (reader->ok() && reader->atEnd()) {
                EXPECT_EQ(out.size(), in.size())
                    << "byte " << byte << " bit " << bit
                    << ": silent short read";
                EXPECT_EQ(reader->contentDigest(), ref.value())
                    << "byte " << byte << " bit " << bit
                    << ": silent payload corruption";
            } else {
                EXPECT_FALSE(reader->error().empty())
                    << "byte " << byte << " bit " << bit;
                EXPECT_NE(reader->error().find("byte offset"),
                          std::string::npos)
                    << "byte " << byte << " bit " << bit << ": "
                    << reader->error();
            }
        }
    }
}

TEST(FsbCaptureMalformed, DigestMismatchDetected)
{
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 64);
    // The last 8 bytes are the trailer digest.
    bytes[bytes.size() - 1] ^= 0xff;
    auto reader = decodeAll(std::move(bytes));
    EXPECT_FALSE(reader->ok());
    EXPECT_NE(reader->error().find("digest mismatch"), std::string::npos)
        << reader->error();
}

TEST(FsbCaptureMalformed, TrailingGarbageDetected)
{
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 64);
    bytes.push_back(0x00);
    auto reader = decodeAll(std::move(bytes));
    EXPECT_FALSE(reader->ok());
    EXPECT_NE(reader->error().find("trailing garbage"),
              std::string::npos)
        << reader->error();
}

TEST(FsbCaptureMalformed, CorruptPayloadDetected)
{
    // Flip a bit somewhere in every chunk payload byte; each mutation
    // must end in a reported error (reserved-bit, framing, count or
    // digest), never a clean decode of wrong data. Header strings are
    // not digest-protected, so start at the first chunk byte: 48 fixed
    // header bytes plus the length-prefixed "testwl" and "testCMP".
    std::vector<std::uint8_t> bytes = encode(adversarialStream(), 4096);
    const std::size_t first_chunk = 48 + 7 + 8;
    for (std::size_t i = first_chunk; i + 16 < bytes.size(); i += 7) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[i] ^= 0x10;
        auto reader = decodeAll(std::move(corrupt));
        EXPECT_FALSE(reader->ok() && reader->atEnd())
            << "flip at byte " << i << " decoded cleanly";
    }
}

TEST(FsbCaptureMalformed, ChunkCountBeyondPayloadIsAnError)
{
    // A valid header, then a chunk frame claiming 2^40 transactions in
    // two payload bytes: a reader that trusted the count would try to
    // reserve room for them all.
    std::vector<std::uint8_t> bytes = encode({}, 64);
    const std::size_t header_end = 48 + 7 + 8; // fixed + strings
    bytes.resize(header_end);
    bytes.push_back('C');
    std::uint64_t n_txns = std::uint64_t{1} << 40;
    for (; n_txns >= 0x80; n_txns >>= 7)
        bytes.push_back(static_cast<std::uint8_t>(n_txns | 0x80));
    bytes.push_back(static_cast<std::uint8_t>(n_txns));
    bytes.push_back(0x02); // payload bytes
    const std::size_t frame_end = bytes.size();
    bytes.push_back(0x00);
    bytes.push_back(0x00);

    auto reader = decodeAll(std::move(bytes));
    EXPECT_FALSE(reader->ok());
    EXPECT_NE(reader->error().find("corrupt FSB stream"), std::string::npos)
        << reader->error();
    EXPECT_NE(reader->error().find("byte offset " +
                                   std::to_string(frame_end)),
              std::string::npos)
        << reader->error();
}

/** A stream cut after one chunk that holds @p before valid two-byte
 * transactions, then @p bad, then @p after more; @p bad_at receives
 * @p bad's byte offset. The frame counts the transactions up to @p bad,
 * which leaves every payload size under the count check. */
std::vector<std::uint8_t>
chunkAround(std::size_t before, const std::vector<std::uint8_t>& bad,
            std::size_t after, std::size_t& bad_at)
{
    std::vector<std::uint8_t> payload;
    const auto pad = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            payload.push_back(0x0c); // size and core repeat
            payload.push_back(0x00); // address delta 0
        }
    };
    pad(before);
    payload.insert(payload.end(), bad.begin(), bad.end());
    pad(after);
    std::vector<std::uint8_t> bytes = encode({}, 64);
    bytes.resize(48 + 7 + 8); // fixed header + strings
    bytes.push_back('C');
    bytes.push_back(static_cast<std::uint8_t>(before + 1));
    bytes.push_back(static_cast<std::uint8_t>(payload.size()));
    bad_at = bytes.size() + 2 * before;
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    return bytes;
}

TEST(FsbCaptureMalformed, FieldErrorsAreTheSameAnywhereInAChunk)
{
    // The reader checks bounds once per transaction while a worst-case
    // one (31 bytes) fits before the chunk's end, and per byte after
    // that. Each corrupt field reports the same message and byte offset
    // in both places.
    struct Case
    {
        const char* what;
        std::vector<std::uint8_t> bad; ///< all of it read before failing
        std::string error;
    };
    const std::vector<std::uint8_t> overlong(10, 0x80);
    const auto with = [](std::vector<std::uint8_t> head,
                         const std::vector<std::uint8_t>& tail) {
        head.insert(head.end(), tail.begin(), tail.end());
        return head;
    };
    const std::vector<Case> cases = {
        {"reserved lead bits", {0x1c},
         "corrupt FSB stream: reserved lead-byte bits set (0x1c)"},
        {"overlong core", with({0x04}, overlong),
         "corrupt FSB stream: bad core id"},
        {"core above 0xffff", {0x04, 0x80, 0x80, 0x04},
         "corrupt FSB stream: bad core id"},
        {"overlong size", with({0x08}, overlong),
         "corrupt FSB stream: bad transaction size"},
        {"size above 2^32-1", {0x08, 0x80, 0x80, 0x80, 0x80, 0x10},
         "corrupt FSB stream: bad transaction size"},
        {"overlong address delta", with({0x0c}, overlong),
         "corrupt FSB stream: bad address delta"},
        {"address delta past 64 bits",
         with(with({0x0c}, std::vector<std::uint8_t>(9, 0xff)), {0x7f}),
         "corrupt FSB stream: bad address delta"},
    };
    struct Placement
    {
        const char* where;
        std::size_t before, after;
    };
    const Placement placements[] = {
        {"first, 31+ bytes before the end", 0, 16},
        {"later, 31+ bytes before the end", 3, 16},
        {"within the last 31 bytes", 20, 2},
    };
    for (const Case& c : cases) {
        for (const Placement& p : placements) {
            std::size_t bad_at = 0;
            std::vector<std::uint8_t> bytes =
                chunkAround(p.before, c.bad, p.after, bad_at);
            const std::size_t chunk_end = bytes.size();
            ASSERT_EQ(chunk_end - bad_at >= 31, p.after > 2) << p.where;
            const std::string expected =
                c.error + " (byte offset " +
                std::to_string(bad_at + c.bad.size()) + " of " +
                std::to_string(bytes.size()) + ")";
            auto reader = decodeAll(std::move(bytes));
            EXPECT_EQ(reader->error(), expected)
                << c.what << ", " << p.where;
            EXPECT_EQ(reader->txnsDecoded(), p.before)
                << c.what << ", " << p.where;
        }
    }
}

TEST(FsbCaptureMalformed, FieldRunningPastTheChunkEndIsAnError)
{
    // A transaction 25 bytes before the chunk's end whose zero core and
    // size take 10 bytes each, so its address delta starts inside the
    // chunk and ends a byte past it.
    std::vector<std::uint8_t> bad = {0x00};
    for (int field = 0; field < 2; ++field) {
        bad.insert(bad.end(), 9, 0x80);
        bad.push_back(0x00);
    }
    bad.insert(bad.end(), 4, 0x80);
    std::size_t bad_at = 0;
    std::vector<std::uint8_t> bytes = chunkAround(20, bad, 0, bad_at);
    bytes.push_back(0x01);
    const std::string expected =
        "corrupt FSB stream: bad address delta (byte offset " +
        std::to_string(bytes.size()) + " of " +
        std::to_string(bytes.size()) + ")";
    auto reader = decodeAll(std::move(bytes));
    EXPECT_EQ(reader->error(), expected);
    EXPECT_EQ(reader->txnsDecoded(), 20u);
}

TEST(FsbCaptureMalformed, MissingFileHasClearError)
{
    FsbStreamInfo info;
    std::string error;
    EXPECT_FALSE(probeFsbStream("/nonexistent/stream.fsb", info, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(FsbCaptureMalformed, EmptyAndTinyFiles)
{
    for (std::size_t n : {0u, 1u, 3u, 4u, 16u}) {
        auto reader = decodeAll(std::vector<std::uint8_t>(n, 0));
        EXPECT_FALSE(reader->ok()) << n << " zero bytes decoded";
    }
}

// --- digest manifest -----------------------------------------------------

TEST(DigestManifest, TextRoundTrip)
{
    DigestManifest m;
    m.add("PLSA", 4854, 0x26c6594823e79495ull);
    m.add("FIMI", 412803, 0xe99d22909f31a207ull);

    std::string path = testing::TempDir() + "digest_manifest_test.txt";
    m.writeFile(path);

    DigestManifest loaded;
    std::string error;
    ASSERT_TRUE(DigestManifest::load(path, loaded, &error)) << error;
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[0].workload, "PLSA");
    EXPECT_EQ(loaded.entries[0].txns, 4854u);
    EXPECT_EQ(loaded.entries[0].digest, 0x26c6594823e79495ull);
    ASSERT_NE(loaded.find("FIMI"), nullptr);
    EXPECT_EQ(loaded.find("FIMI")->digest, 0xe99d22909f31a207ull);
    EXPECT_EQ(loaded.find("nope"), nullptr);
    std::remove(path.c_str());
}

TEST(DigestManifest, CompareReportsEveryDifference)
{
    DigestManifest golden, fresh;
    golden.add("A", 10, 1);
    golden.add("B", 20, 2);
    golden.add("C", 30, 3);
    fresh.add("A", 10, 1);      // match
    fresh.add("B", 21, 99);     // mismatch
    fresh.add("D", 40, 4);      // new; C missing

    std::string report;
    EXPECT_FALSE(DigestManifest::compare(golden, fresh, report));
    EXPECT_NE(report.find("B"), std::string::npos) << report;
    EXPECT_NE(report.find("C"), std::string::npos) << report;
    EXPECT_NE(report.find("D"), std::string::npos) << report;
    EXPECT_EQ(report.find("A "), std::string::npos) << report;

    std::string ok_report;
    EXPECT_TRUE(DigestManifest::compare(golden, golden, ok_report));
    EXPECT_TRUE(ok_report.empty());
}

TEST(DigestManifest, LoadRejectsBadSchema)
{
    std::string path = testing::TempDir() + "digest_bad_schema.txt";
    std::ofstream(path) << "# some-other-format/9\nA 1 2\n";
    DigestManifest m;
    std::string error;
    EXPECT_FALSE(DigestManifest::load(path, m, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(FsbCapture, FormatDigestRendering)
{
    EXPECT_EQ(formatFsbDigest(0x26c6594823e79495ull),
              "26c6594823e79495");
    EXPECT_EQ(formatFsbDigest(0x1ull), "0000000000000001");
}

} // namespace
} // namespace cosim
