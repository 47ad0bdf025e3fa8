/**
 * @file
 * FSB stream capture: a compact, versioned on-disk format for the exact
 * transaction sequence a live run broadcasts on the front-side bus.
 *
 * The paper's Dragonhead board is passive -- it snoops the FSB without
 * timing feedback -- so one guest execution can drive any number of LLC
 * configurations. Capturing the regulated bus stream once makes that
 * reuse durable: a recorded stream replays bit-identically through any
 * emulator configuration without re-executing the guest (fsb_replay.hh),
 * and its content digest is a stable fingerprint of "what the workload
 * put on the bus" that CI gates on (tests/golden/).
 *
 * Format "FSBC", version 1, little-endian throughout:
 *
 *   header (fixed 48 bytes, then two length-prefixed strings):
 *     [0..3]   magic "FSBC"
 *     [4..7]   u32 version (kFsbStreamVersion)
 *     [8..11]  u32 flags (reserved, 0)
 *     [12..15] u32 nCores
 *     [16..23] u64 seed
 *     [24..31] f64 scale
 *     [32..39] u64 totalInsts of the captured run (patched at finish)
 *     [40..43] u32 verified flag of the captured run (patched at finish)
 *     [44..47] u32 reserved
 *     varint workload-name length + bytes
 *     varint platform-name length + bytes
 *
 *   chunks (any number):
 *     u8 'C', varint txnCount, varint payloadBytes, payload
 *
 *     The payload packs each transaction as a lead byte -- TxnKind in
 *     bits [1:0], "size repeats" in bit 2, "core repeats" in bit 3 --
 *     followed by varint core (when not repeating), varint size (when
 *     not repeating) and the ZigZag varint delta from the previous
 *     transaction's address. Predictor state (prev addr/size/core)
 *     carries across chunk boundaries; chunks exist so capture and
 *     replay stream in bounded memory.
 *
 *   trailer:
 *     u8 'E', u64 total txnCount, u64 FNV-1a content digest
 *
 * The digest hashes the *decoded* canonical tuples (addr, size, kind,
 * core), not the encoded bytes, so a digest-only snooper on a live bus,
 * a capture writer and a replay reader all derive the same value.
 */

#ifndef COSIM_TRACE_FSB_CAPTURE_HH
#define COSIM_TRACE_FSB_CAPTURE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/fsb.hh"

namespace cosim {

/** Format version this build writes and reads. */
constexpr std::uint32_t kFsbStreamVersion = 1;

/** Provenance recorded in a stream header. */
struct FsbStreamMeta
{
    std::string workload;
    std::string platform;
    std::uint32_t nCores = 0;
    std::uint64_t seed = 0;
    double scale = 1.0;

    /** Result of the captured run, for replay provenance. @{ */
    std::uint64_t totalInsts = 0;
    bool verified = false;
    /** @} */
};

/** Incremental FNV-1a over canonical transaction tuples. */
class FsbDigest
{
  public:
    void update(const BusTransaction& txn);
    void update(const BusTransaction* txns, std::size_t n);

    std::uint64_t value() const { return hash_; }
    std::uint64_t txnCount() const { return txns_; }
    void reset();

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull; ///< FNV offset basis
    std::uint64_t txns_ = 0;
};

/** Render a digest the way digest manifests and tools print it. */
std::string formatFsbDigest(std::uint64_t digest);

/**
 * Encodes a transaction stream into an in-memory buffer in the format
 * above. finish() (or writeFile()) seals the trailer; appending after
 * that is a hard error.
 */
class FsbStreamWriter
{
  public:
    explicit FsbStreamWriter(const FsbStreamMeta& meta,
                             std::size_t chunkTxns = 4096);

    void append(const BusTransaction& txn);
    void appendBatch(const BusTransaction* txns, std::size_t n);

    /**
     * Record the captured run's outcome into the header (any time
     * before finish()).
     */
    void setResult(std::uint64_t total_insts, bool verified);

    /** Flush the open chunk and write the trailer (idempotent). */
    void finish();

    /**
     * finish(), then write the buffer to @p path atomically
     * (write-temp + rename). @throws IoError on failure, so a sweep
     * cell capturing to a bad path is isolatable under --keep-going.
     */
    void writeFile(const std::string& path);

    /** finish(), then hand the encoded stream off without copying. */
    std::shared_ptr<const std::vector<std::uint8_t>> share();

    /** Encoded bytes so far (header + sealed chunks [+ trailer]). */
    std::size_t encodedBytes() const { return buffer_.size(); }

    std::uint64_t txnCount() const { return digest_.txnCount(); }
    std::uint64_t digest() const { return digest_.value(); }
    const FsbStreamMeta& meta() const { return meta_; }

  private:
    /** Encode @p txn into the open chunk, sealing it when full. */
    void encode(const BusTransaction& txn);
    void flushChunk();

    FsbStreamMeta meta_;
    std::size_t chunkTxns_;
    std::vector<std::uint8_t> buffer_;  ///< sealed stream prefix
    std::vector<std::uint8_t> chunk_;   ///< open chunk's payload buffer
    std::size_t chunkBytes_ = 0;        ///< payload bytes in use
    std::size_t chunkCount_ = 0;        ///< txns in the open chunk
    FsbDigest digest_;
    /** Encoder prediction state. @{ */
    Addr prevAddr_ = 0;
    std::uint32_t prevSize_ = 0;
    CoreId prevCore_ = 0;
    /** @} */
    bool finished_ = false;
};

/**
 * Decodes a stream chunk-at-a-time with full validation: bad magic,
 * unsupported version, truncation, framing damage and digest mismatch
 * all surface as a false return plus a human-readable error() -- never
 * as undefined behaviour.
 */
class FsbStreamReader
{
  public:
    /** Open @p path; false (with error()) when the header is bad. */
    bool openFile(const std::string& path, std::string* error = nullptr);

    /** Open an in-memory stream (shares ownership of the buffer). */
    bool openBuffer(std::shared_ptr<const std::vector<std::uint8_t>> buf,
                    std::string* error = nullptr);

    /**
     * Decode the next chunk into @p out (replaced, not appended).
     * Returns false at the end of the stream -- which is only *clean*
     * once the trailer's count and digest have been verified -- or on
     * corruption; ok() distinguishes the two.
     */
    bool nextChunk(std::vector<BusTransaction>& out);

    /** True while no error has been detected. */
    bool ok() const { return error_.empty(); }

    /** True once the trailer has been read and verified. */
    bool atEnd() const { return atEnd_; }

    const std::string& error() const { return error_; }
    const FsbStreamMeta& meta() const { return meta_; }

    std::uint64_t txnsDecoded() const { return digest_.txnCount(); }

    /** Content digest over everything decoded so far. */
    std::uint64_t contentDigest() const { return digest_.value(); }

    std::size_t streamBytes() const { return data_ ? data_->size() : 0; }

  private:
    bool fail(const std::string& what);
    bool parseHeader();

    /**
     * Decode the transaction at @p pos of @p d into @p txn, which holds
     * the previous one on entry; false after fail() on corruption.
     * Without @p kChecked the caller guarantees that a worst-case
     * transaction fits before @p chunkEnd.
     */
    template <bool kChecked>
    bool decodeTxn(const std::uint8_t* d, std::size_t chunkEnd,
                   std::size_t& pos, BusTransaction& txn);

    std::shared_ptr<const std::vector<std::uint8_t>> data_;
    std::size_t pos_ = 0;
    FsbStreamMeta meta_;
    FsbDigest digest_;
    /** Decoder prediction state (mirrors the writer). @{ */
    Addr prevAddr_ = 0;
    std::uint32_t prevSize_ = 0;
    CoreId prevCore_ = 0;
    /** @} */
    bool atEnd_ = false;
    std::string error_;
};

/** Everything `cosim_replay info` prints about a stream file. */
struct FsbStreamInfo
{
    FsbStreamMeta meta;
    std::uint64_t txns = 0;
    std::uint64_t digest = 0;
    std::uint64_t fileBytes = 0;
};

/**
 * Fully decode and validate @p path without materializing the stream.
 * @return true and fill @p info, or false with a description in @p
 *         error.
 */
bool probeFsbStream(const std::string& path, FsbStreamInfo& info,
                    std::string* error = nullptr);

/**
 * Decode and validate @p path into a transaction vector (tests and the
 * diff tool; replay streams chunk-wise instead).
 */
bool loadFsbStream(const std::string& path,
                   std::vector<BusTransaction>& txns, FsbStreamMeta& meta,
                   std::string* error = nullptr);

/** A BusSnooper that encodes everything it sees through a writer. */
class FsbCaptureSnooper : public BusSnooper
{
  public:
    explicit FsbCaptureSnooper(const FsbStreamMeta& meta,
                               std::size_t chunkTxns = 4096)
        : writer_(meta, chunkTxns)
    {
    }

    void observe(const BusTransaction& txn) override;
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    FsbStreamWriter& writer() { return writer_; }

    /** Host wall-clock spent encoding (the capture-overhead gauge). */
    double encodeSeconds() const { return encodeSeconds_; }

  private:
    FsbStreamWriter writer_;
    double encodeSeconds_ = 0.0;
};

/**
 * A BusSnooper that only fingerprints the stream -- no encoding, no
 * storage -- for cheap golden-digest checks on live runs.
 */
class FsbDigestSnooper : public BusSnooper
{
  public:
    void observe(const BusTransaction& txn) override
    {
        digest_.update(txn);
    }

    void observeBatch(const BusTransaction* txns, std::size_t n) override
    {
        digest_.update(txns, n);
    }

    std::uint64_t digest() const { return digest_.value(); }
    std::uint64_t txnCount() const { return digest_.txnCount(); }

  private:
    FsbDigest digest_;
};

/**
 * The per-figure digest manifest committed under tests/golden/: one
 * line per workload stream, "workload txns fnv64", under a schema
 * header line. Text so golden diffs stay reviewable.
 */
struct DigestManifest
{
    struct Entry
    {
        std::string workload;
        std::uint64_t txns = 0;
        std::uint64_t digest = 0;
    };

    std::vector<Entry> entries;

    void add(const std::string& workload, std::uint64_t txns,
             std::uint64_t digest);

    /** Entry lookup; nullptr when absent. */
    const Entry* find(const std::string& workload) const;

    std::string toText() const;

    /** Write toText() to @p path; fatal() on I/O error. */
    void writeFile(const std::string& path) const;

    /** Parse @p path; false with @p error on malformed input. */
    static bool load(const std::string& path, DigestManifest& out,
                     std::string* error = nullptr);

    /**
     * Compare a freshly computed manifest against a golden one.
     * @return true when identical; otherwise false with a reviewable
     *         per-workload report in @p report.
     */
    static bool compare(const DigestManifest& golden,
                        const DigestManifest& fresh, std::string& report);
};

} // namespace cosim

#endif // COSIM_TRACE_FSB_CAPTURE_HH
