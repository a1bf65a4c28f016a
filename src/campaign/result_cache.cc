#include "campaign/result_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/retry.hh"
#include "telemetry/metrics.hh"

namespace rfl::campaign
{

namespace
{

/** fsync a directory so a freshly created/renamed dirent is durable.
 *  Best-effort: some filesystems reject directory fsync, and a failed
 *  one only weakens durability, never correctness. */
void
fsyncDirectory(const std::filesystem::path &dir)
{
    const std::string path = dir.empty() ? "." : dir.string();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    if (::fsync(fd) != 0)
        warn("result cache: fsync of directory '%s' failed",
             path.c_str());
    ::close(fd);
}

/** Write @p blob to @p path and fsync it; @return success. */
bool
writeFileSynced(const std::string &path, const std::string &blob)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    size_t off = 0;
    while (off < blob.size()) {
        const ssize_t n =
            ::write(fd, blob.data() + off, blob.size() - off);
        if (n < 0) {
            ::close(fd);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        return false;
    }
    return ::close(fd) == 0;
}

/** Append the spill line of (@p key, @p payload) to @p out. The
 *  payload is one JSON value already and nests as is. */
void
appendSpillLine(std::string &out, const std::string &key,
                const std::string &payload)
{
    JsonWriter(out).beginObject().key("key").string(key)
        .key("payload").raw(payload).endObject();
    out += '\n';
}

} // namespace

ResultCache::ResultCache(const std::string &spillPath)
    : spillPath_(spillPath)
{
    std::ifstream in(spillPath_);
    if (!in)
        return; // fresh cache; file appears on first store
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // A corrupt line (e.g. an append truncated by a crash) costs
        // one re-simulation, not the whole cache: set it aside in the
        // quarantine file — evidence for a post-mortem — and move on.
        Json entry;
        if (RFL_FAILPOINT("cache.spill.read") ||
            !Json::tryParse(line, &entry) ||
            entry.kind() != Json::Kind::Object ||
            !entry.has("key") || !entry.has("payload") ||
            entry.at("key").kind() != Json::Kind::String) {
            warn("result cache %s:%d: quarantining unparsable entry",
                 spillPath_.c_str(), lineno);
            std::ofstream q(spillPath_ + ".quarantine",
                            std::ios::app);
            if (q)
                q << line << "\n";
            ++stats_.quarantined;
            telemetry::Registry::global()
                .counter("rfl_cache_quarantined_lines_total",
                         "unparsable spill lines set aside on load")
                .inc();
            continue;
        }
        // Later lines win: the file is append-only.
        entries_[entry.at("key").asString()] =
            entry.at("payload").dump();
        ++stats_.preloaded;
    }
}

bool
ResultCache::lookup(const std::string &key, std::string *payload)
{
    RFL_ASSERT(payload != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    *payload = it->second;
    return true;
}

void
ResultCache::store(const std::string &key, const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = payload;
    ++stats_.stores;
    if (spillPath_.empty())
        return;
    std::string line;
    appendSpillLine(line, key, payload);
    // A transient append failure (sick disk, injected fault) costs a
    // few milliseconds of backoff, not the campaign.
    const bool ok = retryWithBackoff("cache-append", [&] {
        if (RFL_FAILPOINT("cache.spill.append"))
            return false;
        std::ofstream out(spillPath_, std::ios::app);
        if (!out)
            return false;
        out << line;
        out.flush();
        return out.good();
    });
    if (!ok)
        fatal("result cache: cannot append to '%s'",
              spillPath_.c_str());
}

bool
ResultCache::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(key) != 0;
}

std::string
cacheKeyConfigHash(const std::string &key)
{
    const size_t first = key.find('|');
    if (first == std::string::npos)
        return "";
    const size_t second = key.find('|', first + 1);
    if (second == std::string::npos)
        return "";
    return key.substr(first + 1, second - first - 1);
}

size_t
ResultCache::compact(const std::set<std::string> &liveConfigHashes)
{
    std::lock_guard<std::mutex> lock(mutex_);

    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        const std::string hash = cacheKeyConfigHash(it->first);
        if (!hash.empty() && liveConfigHashes.count(hash) == 0) {
            it = entries_.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }

    if (spillPath_.empty())
        return dropped;

    // Rewrite the spill to exactly the surviving entries. Even with
    // zero drops this collapses append-only duplicate lines, so a
    // compacted file loads one line per entry.
    std::string blob;
    for (const auto &[key, payload] : entries_)
        appendSpillLine(blob, key, payload);

    // Crash-only discipline: the temp file AND its directory entry
    // must be on disk before the rename publishes it, else a crash
    // right after the rename could leave an empty (or hole-y) spill.
    const std::string tmp = spillPath_ + ".compact.tmp";
    const std::filesystem::path dir =
        std::filesystem::path(spillPath_).parent_path();
    const bool wrote = retryWithBackoff("cache-compact", [&] {
        if (RFL_FAILPOINT("cache.compact.write"))
            return false;
        return writeFileSynced(tmp, blob);
    });
    if (!wrote)
        fatal("result cache: cannot write '%s'", tmp.c_str());
    fsyncDirectory(dir);

    if (RFL_FAILPOINT("cache.compact.rename")) {
        fatal("result cache: cannot replace '%s': injected fault",
              spillPath_.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, spillPath_, ec);
    if (ec) {
        fatal("result cache: cannot replace '%s': %s",
              spillPath_.c_str(), ec.message().c_str());
    }
    fsyncDirectory(dir);
    return dropped;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace rfl::campaign
