#include "base/atomic_file.hh"

#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

#include "base/fault.hh"
#include "base/logging.hh"

namespace cosim {

AtomicFile::AtomicFile(const std::string& path, bool binary)
    : path_(path), tmpPath_(path + ".tmp")
{
    std::ios_base::openmode mode = std::ios_base::out |
                                   std::ios_base::trunc;
    if (binary)
        mode |= std::ios_base::binary;
    out_.open(tmpPath_, mode);
    if (!out_.is_open()) {
        done_ = true;
        throw IoError("cannot open '" + tmpPath_ + "' for writing");
    }
}

AtomicFile::~AtomicFile()
{
    abort();
}

void
AtomicFile::commit()
{
    panic_if(done_, "AtomicFile::commit() after commit/abort (%s)",
             path_.c_str());
    // An armed "io.write.fail" plan poisons the stream here so the
    // whole failure path (error check, temp cleanup, IoError) runs.
    if (faultPending("io.write.fail"))
        out_.setstate(std::ios_base::failbit);
    out_.flush();
    if (!out_) {
        abort();
        throw IoError("write to '" + path_ +
                      "' failed (disk full or I/O error)");
    }
    out_.close();
    if (out_.fail()) {
        abort();
        throw IoError("closing '" + tmpPath_ + "' failed");
    }
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        abort();
        throw IoError("cannot rename '" + tmpPath_ + "' to '" + path_ +
                      "'");
    }
    done_ = true;
}

void
AtomicFile::abort() noexcept
{
    if (done_)
        return;
    done_ = true;
    if (out_.is_open())
        out_.close();
    std::remove(tmpPath_.c_str());
}

void
writeFileAtomic(const std::string& path, const std::string& body,
                bool binary)
{
    AtomicFile file(path, binary);
    file.write(body);
    file.commit();
}

DurableAppendFile::DurableAppendFile(const std::string& path,
                                     bool truncate)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (truncate)
        flags |= O_TRUNC;
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0)
        throw IoError("cannot open '" + path_ + "' for appending");
}

DurableAppendFile::~DurableAppendFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
DurableAppendFile::appendLine(const std::string& line)
{
    if (fd_ < 0)
        return false;
    std::string rec = line;
    rec += '\n';
    // One write() per record: O_APPEND places it contiguously at EOF.
    const ssize_t n = ::write(fd_, rec.data(), rec.size());
    if (n != static_cast<ssize_t>(rec.size()) ||
        ::fdatasync(fd_) != 0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return true;
}

} // namespace cosim
