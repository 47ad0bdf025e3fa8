#include "trace/fsb_capture.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cosim {

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'S', 'B', 'C'};
constexpr std::uint8_t kChunkMarker = 'C';
constexpr std::uint8_t kTrailerMarker = 'E';
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Fixed header bytes before the two length-prefixed strings. */
constexpr std::size_t kFixedHeaderBytes = 48;
constexpr std::size_t kTotalInstsOffset = 32;
constexpr std::size_t kVerifiedOffset = 40;

/** Sanity cap: no workload/platform name is this long. */
constexpr std::uint64_t kMaxHeaderString = 4096;

/** Lead-byte layout. @{ */
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kSameSizeBit = 0x04;
constexpr std::uint8_t kSameCoreBit = 0x08;
constexpr std::uint8_t kLeadReservedMask = 0xf0;
/** @} */

void
putU32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
putU64(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
patchU64(std::vector<std::uint8_t>& buf, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putVarint(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Interpret a double's bits for endian-stable serialization. */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

void
FsbDigest::update(const BusTransaction& txn)
{
    // Canonical tuple: addr (8B LE), size (4B LE), kind (1B), core
    // (2B LE), hashed byte-at-a-time so the value is host-independent.
    std::uint8_t bytes[15];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(txn.addr >> (8 * i));
    for (int i = 0; i < 4; ++i)
        bytes[8 + i] = static_cast<std::uint8_t>(txn.size >> (8 * i));
    bytes[12] = static_cast<std::uint8_t>(txn.kind);
    bytes[13] = static_cast<std::uint8_t>(txn.core);
    bytes[14] = static_cast<std::uint8_t>(txn.core >> 8);
    for (std::uint8_t b : bytes) {
        hash_ ^= b;
        hash_ *= kFnvPrime;
    }
    ++txns_;
}

void
FsbDigest::reset()
{
    hash_ = 0xcbf29ce484222325ull;
    txns_ = 0;
}

std::string
formatFsbDigest(std::uint64_t digest)
{
    return strFormat("%016llx", static_cast<unsigned long long>(digest));
}

FsbStreamWriter::FsbStreamWriter(const FsbStreamMeta& meta,
                                 std::size_t chunkTxns)
    : meta_(meta), chunkTxns_(chunkTxns == 0 ? 4096 : chunkTxns)
{
    buffer_.reserve(kFixedHeaderBytes + meta_.workload.size() +
                    meta_.platform.size() + 16);
    for (std::uint8_t b : kMagic)
        buffer_.push_back(b);
    putU32(buffer_, kFsbStreamVersion);
    putU32(buffer_, 0); // flags
    putU32(buffer_, meta_.nCores);
    putU64(buffer_, meta_.seed);
    putU64(buffer_, doubleBits(meta_.scale));
    putU64(buffer_, meta_.totalInsts);
    putU32(buffer_, meta_.verified ? 1 : 0);
    putU32(buffer_, 0); // reserved
    panic_if(buffer_.size() != kFixedHeaderBytes,
             "fixed stream header is %zu bytes, expected %zu",
             buffer_.size(), kFixedHeaderBytes);
    putVarint(buffer_, meta_.workload.size());
    buffer_.insert(buffer_.end(), meta_.workload.begin(),
                   meta_.workload.end());
    putVarint(buffer_, meta_.platform.size());
    buffer_.insert(buffer_.end(), meta_.platform.begin(),
                   meta_.platform.end());
}

void
FsbStreamWriter::append(const BusTransaction& txn)
{
    panic_if(finished_, "appending to a finished FSB stream");

    std::uint8_t lead = static_cast<std::uint8_t>(txn.kind) & kKindMask;
    const bool same_size = txn.size == prevSize_;
    const bool same_core = txn.core == prevCore_;
    if (same_size)
        lead |= kSameSizeBit;
    if (same_core)
        lead |= kSameCoreBit;
    chunk_.push_back(lead);
    if (!same_core)
        putVarint(chunk_, txn.core);
    if (!same_size)
        putVarint(chunk_, txn.size);
    putVarint(chunk_, zigzag(static_cast<std::int64_t>(txn.addr) -
                             static_cast<std::int64_t>(prevAddr_)));

    prevAddr_ = txn.addr;
    prevSize_ = txn.size;
    prevCore_ = txn.core;
    digest_.update(txn);
    if (++chunkCount_ >= chunkTxns_)
        flushChunk();
}

void
FsbStreamWriter::appendBatch(const BusTransaction* txns, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        append(txns[i]);
}

void
FsbStreamWriter::setResult(std::uint64_t total_insts, bool verified)
{
    panic_if(finished_, "setResult() on a finished FSB stream");
    meta_.totalInsts = total_insts;
    meta_.verified = verified;
    patchU64(buffer_, kTotalInstsOffset, total_insts);
    buffer_[kVerifiedOffset] = verified ? 1 : 0;
}

void
FsbStreamWriter::flushChunk()
{
    if (chunkCount_ == 0)
        return;
    buffer_.push_back(kChunkMarker);
    putVarint(buffer_, chunkCount_);
    putVarint(buffer_, chunk_.size());
    buffer_.insert(buffer_.end(), chunk_.begin(), chunk_.end());
    chunk_.clear();
    chunkCount_ = 0;
}

void
FsbStreamWriter::finish()
{
    if (finished_)
        return;
    flushChunk();
    buffer_.push_back(kTrailerMarker);
    putU64(buffer_, digest_.txnCount());
    putU64(buffer_, digest_.value());
    finished_ = true;
}

void
FsbStreamWriter::writeFile(const std::string& path)
{
    finish();
    AtomicFile file(path, /*binary=*/true);
    file.stream().write(
        reinterpret_cast<const char*>(buffer_.data()),
        static_cast<std::streamsize>(buffer_.size()));
    file.commit();
}

std::shared_ptr<const std::vector<std::uint8_t>>
FsbStreamWriter::share()
{
    finish();
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::move(buffer_));
}

bool
FsbStreamReader::fail(const std::string& what)
{
    // Every decode error is positioned: the byte offset pins the
    // corruption for fuzz tests and for anyone hexdumping the stream.
    if (error_.empty()) {
        error_ = what + " (byte offset " + std::to_string(pos_) + " of " +
                 std::to_string(data_ ? data_->size() : 0) + ")";
    }
    return false;
}

bool
FsbStreamReader::openFile(const std::string& path, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        fail("cannot open FSB stream file '" + path + "'");
        if (error)
            *error = error_;
        return false;
    }
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) {
        fail("error reading FSB stream file '" + path + "'");
        if (error)
            *error = error_;
        return false;
    }
    return openBuffer(std::move(buf), error);
}

bool
FsbStreamReader::openBuffer(
    std::shared_ptr<const std::vector<std::uint8_t>> buf,
    std::string* error)
{
    data_ = std::move(buf);
    pos_ = 0;
    digest_.reset();
    prevAddr_ = 0;
    prevSize_ = 0;
    prevCore_ = 0;
    atEnd_ = false;
    error_.clear();
    const bool ok = parseHeader();
    if (!ok && error)
        *error = error_;
    return ok;
}

namespace {

/** Bounds-checked varint read; false on truncation or overlong value. */
bool
readVarint(const std::vector<std::uint8_t>& data, std::size_t& pos,
           std::uint64_t& out)
{
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (pos >= data.size())
            return false;
        const std::uint8_t byte = data[pos++];
        out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            // Reject non-canonical bits that would be shifted out.
            if (shift == 63 && (byte & 0x7e) != 0)
                return false;
            return true;
        }
    }
    return false;
}

bool
readU32(const std::vector<std::uint8_t>& data, std::size_t& pos,
        std::uint32_t& out)
{
    if (pos + 4 > data.size())
        return false;
    out = 0;
    for (int i = 0; i < 4; ++i)
        out |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return true;
}

bool
readU64(const std::vector<std::uint8_t>& data, std::size_t& pos,
        std::uint64_t& out)
{
    if (pos + 8 > data.size())
        return false;
    out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return true;
}

bool
readString(const std::vector<std::uint8_t>& data, std::size_t& pos,
           std::string& out)
{
    std::uint64_t len = 0;
    if (!readVarint(data, pos, len) || len > kMaxHeaderString ||
        pos + len > data.size()) {
        return false;
    }
    out.assign(reinterpret_cast<const char*>(data.data()) + pos,
               static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
}

} // namespace

bool
FsbStreamReader::parseHeader()
{
    const std::vector<std::uint8_t>& d = *data_;
    if (d.size() < kFixedHeaderBytes)
        return fail("truncated FSB stream: no header");
    for (int i = 0; i < 4; ++i) {
        if (d[static_cast<std::size_t>(i)] != kMagic[i]) {
            return fail("bad magic: not an FSB stream file "
                        "(expected \"FSBC\")");
        }
    }
    pos_ = 4;
    std::uint32_t version = 0, flags = 0, verified = 0, reserved = 0;
    std::uint64_t scale_bits = 0;
    readU32(d, pos_, version);
    if (version != kFsbStreamVersion) {
        return fail(strFormat("unsupported FSB stream version %u "
                              "(this build reads version %u)",
                              version, kFsbStreamVersion));
    }
    readU32(d, pos_, flags);
    readU32(d, pos_, meta_.nCores);
    readU64(d, pos_, meta_.seed);
    readU64(d, pos_, scale_bits);
    meta_.scale = bitsDouble(scale_bits);
    readU64(d, pos_, meta_.totalInsts);
    readU32(d, pos_, verified);
    readU32(d, pos_, reserved);
    meta_.verified = verified != 0;
    if (!readString(d, pos_, meta_.workload) ||
        !readString(d, pos_, meta_.platform)) {
        return fail("truncated FSB stream: bad header strings");
    }
    return true;
}

bool
FsbStreamReader::nextChunk(std::vector<BusTransaction>& out)
{
    out.clear();
    if (!ok() || atEnd_)
        return false;
    if (data_ == nullptr)
        return fail("FSB stream reader was never opened");
    const std::vector<std::uint8_t>& d = *data_;

    if (pos_ >= d.size())
        return fail("truncated FSB stream: missing trailer");

    const std::uint8_t marker = d[pos_++];
    if (marker == kTrailerMarker) {
        std::uint64_t count = 0, digest = 0;
        if (!readU64(d, pos_, count) || !readU64(d, pos_, digest))
            return fail("truncated FSB stream: short trailer");
        if (count != digest_.txnCount()) {
            return fail(strFormat(
                "FSB stream transaction count mismatch: trailer says "
                "%llu, decoded %llu",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(digest_.txnCount())));
        }
        if (digest != digest_.value()) {
            return fail("FSB stream digest mismatch: trailer says " +
                        formatFsbDigest(digest) + ", content is " +
                        formatFsbDigest(digest_.value()) +
                        " (corrupt or tampered stream)");
        }
        if (pos_ != d.size())
            return fail("trailing garbage after FSB stream trailer");
        atEnd_ = true;
        return false;
    }
    if (marker != kChunkMarker) {
        return fail(strFormat("corrupt FSB stream: unknown section "
                              "marker 0x%02x", marker));
    }

    std::uint64_t n_txns = 0, payload_bytes = 0;
    if (!readVarint(d, pos_, n_txns) ||
        !readVarint(d, pos_, payload_bytes)) {
        return fail("truncated FSB stream: bad chunk frame");
    }
    if (payload_bytes > d.size() - pos_)
        return fail("truncated FSB stream: chunk payload cut short");
    // A transaction takes at least a lead byte and an address delta, so
    // a count beyond half the payload is damage, not a reason to
    // reserve.
    if (n_txns > payload_bytes / 2) {
        return fail(strFormat("corrupt FSB stream: chunk claims %llu "
                              "transactions in %llu payload bytes",
                              static_cast<unsigned long long>(n_txns),
                              static_cast<unsigned long long>(
                                  payload_bytes)));
    }
    const std::size_t chunk_end =
        pos_ + static_cast<std::size_t>(payload_bytes);

    out.reserve(static_cast<std::size_t>(n_txns));
    for (std::uint64_t i = 0; i < n_txns; ++i) {
        if (pos_ >= chunk_end)
            return fail("corrupt FSB stream: chunk payload underruns "
                        "its transaction count");
        const std::uint8_t lead = d[pos_++];
        if ((lead & kLeadReservedMask) != 0) {
            return fail(strFormat("corrupt FSB stream: reserved lead-"
                                  "byte bits set (0x%02x)", lead));
        }
        BusTransaction txn;
        txn.kind = static_cast<TxnKind>(lead & kKindMask);
        if ((lead & kSameCoreBit) != 0) {
            txn.core = prevCore_;
        } else {
            std::uint64_t core = 0;
            if (!readVarint(d, pos_, core) || pos_ > chunk_end ||
                core > 0xffff) {
                return fail("corrupt FSB stream: bad core id");
            }
            txn.core = static_cast<CoreId>(core);
        }
        if ((lead & kSameSizeBit) != 0) {
            txn.size = prevSize_;
        } else {
            std::uint64_t size = 0;
            if (!readVarint(d, pos_, size) || pos_ > chunk_end ||
                size > 0xffffffffull) {
                return fail("corrupt FSB stream: bad transaction size");
            }
            txn.size = static_cast<std::uint32_t>(size);
        }
        std::uint64_t delta = 0;
        if (!readVarint(d, pos_, delta) || pos_ > chunk_end)
            return fail("corrupt FSB stream: bad address delta");
        txn.addr = static_cast<Addr>(static_cast<std::int64_t>(prevAddr_) +
                                     unzigzag(delta));

        prevAddr_ = txn.addr;
        prevSize_ = txn.size;
        prevCore_ = txn.core;
        digest_.update(txn);
        out.push_back(txn);
    }
    if (pos_ != chunk_end) {
        return fail("corrupt FSB stream: chunk payload overruns its "
                    "transaction count");
    }
    return true;
}

bool
probeFsbStream(const std::string& path, FsbStreamInfo& info,
               std::string* error)
{
    FsbStreamReader reader;
    if (!reader.openFile(path, error))
        return false;
    std::vector<BusTransaction> chunk;
    while (reader.nextChunk(chunk)) {
    }
    if (!reader.ok()) {
        if (error)
            *error = reader.error();
        return false;
    }
    info.meta = reader.meta();
    info.txns = reader.txnsDecoded();
    info.digest = reader.contentDigest();
    info.fileBytes = reader.streamBytes();
    return true;
}

bool
loadFsbStream(const std::string& path, std::vector<BusTransaction>& txns,
              FsbStreamMeta& meta, std::string* error)
{
    FsbStreamReader reader;
    if (!reader.openFile(path, error))
        return false;
    txns.clear();
    std::vector<BusTransaction> chunk;
    while (reader.nextChunk(chunk))
        txns.insert(txns.end(), chunk.begin(), chunk.end());
    if (!reader.ok()) {
        if (error)
            *error = reader.error();
        return false;
    }
    meta = reader.meta();
    return true;
}

void
FsbCaptureSnooper::observe(const BusTransaction& txn)
{
    writer_.append(txn);
}

void
FsbCaptureSnooper::observeBatch(const BusTransaction* txns, std::size_t n)
{
    // Timing per chunk keeps the overhead gauge honest without paying a
    // clock read per transaction on the immediate-delivery path.
    auto t0 = std::chrono::steady_clock::now();
    writer_.appendBatch(txns, n);
    encodeSeconds_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
}

void
DigestManifest::add(const std::string& workload, std::uint64_t txns,
                    std::uint64_t digest)
{
    entries.push_back({workload, txns, digest});
}

const DigestManifest::Entry*
DigestManifest::find(const std::string& workload) const
{
    for (const Entry& e : entries) {
        if (e.workload == workload)
            return &e;
    }
    return nullptr;
}

/** Schema header line of the digest-manifest text format. */
constexpr const char* kDigestManifestSchema = "# cosim-fsb-digest/1";

std::string
DigestManifest::toText() const
{
    std::string out = std::string(kDigestManifestSchema) + "\n";
    for (const Entry& e : entries) {
        out += strFormat("%s %llu %s\n", e.workload.c_str(),
                         static_cast<unsigned long long>(e.txns),
                         formatFsbDigest(e.digest).c_str());
    }
    return out;
}

void
DigestManifest::writeFile(const std::string& path) const
{
    try {
        writeFileAtomic(path, toText());
    } catch (const IoError& e) {
        fatal("digest manifest: %s", e.what());
    }
}

bool
DigestManifest::load(const std::string& path, DigestManifest& out,
                     std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open digest manifest '" + path + "'";
        return false;
    }
    out.entries.clear();
    std::string line;
    std::size_t line_no = 0;
    bool saw_schema = false;
    while (std::getline(in, line)) {
        ++line_no;
        line = trim(line);
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // The first comment line is the schema marker; reject files
            // some other tool wrote.
            if (!saw_schema && line != kDigestManifestSchema) {
                if (error) {
                    *error = strFormat(
                        "%s:%zu: not a digest manifest (expected \"%s\","
                        " got \"%s\")", path.c_str(), line_no,
                        kDigestManifestSchema, line.c_str());
                }
                return false;
            }
            saw_schema = true;
            continue;
        }
        std::istringstream fields(line);
        Entry e;
        std::string digest_hex;
        if (!(fields >> e.workload >> e.txns >> digest_hex)) {
            if (error) {
                *error = strFormat("%s:%zu: expected \"workload txns "
                                   "digest\"", path.c_str(), line_no);
            }
            return false;
        }
        char* end = nullptr;
        e.digest = std::strtoull(digest_hex.c_str(), &end, 16);
        if (end == nullptr || *end != '\0' || digest_hex.empty()) {
            if (error) {
                *error = strFormat("%s:%zu: bad digest '%s'",
                                   path.c_str(), line_no,
                                   digest_hex.c_str());
            }
            return false;
        }
        out.entries.push_back(std::move(e));
    }
    return true;
}

bool
DigestManifest::compare(const DigestManifest& golden,
                        const DigestManifest& fresh, std::string& report)
{
    bool identical = true;
    report.clear();
    for (const Entry& g : golden.entries) {
        const Entry* f = fresh.find(g.workload);
        if (f == nullptr) {
            report += strFormat("  %-10s missing from the fresh run\n",
                                g.workload.c_str());
            identical = false;
        } else if (f->digest != g.digest || f->txns != g.txns) {
            report += strFormat(
                "  %-10s golden %llu txns %s, fresh %llu txns %s\n",
                g.workload.c_str(),
                static_cast<unsigned long long>(g.txns),
                formatFsbDigest(g.digest).c_str(),
                static_cast<unsigned long long>(f->txns),
                formatFsbDigest(f->digest).c_str());
            identical = false;
        }
    }
    for (const Entry& f : fresh.entries) {
        if (golden.find(f.workload) == nullptr) {
            report += strFormat("  %-10s not in the golden manifest\n",
                                f.workload.c_str());
            identical = false;
        }
    }
    return identical;
}

} // namespace cosim
