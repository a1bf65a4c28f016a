/**
 * @file
 * Content-addressed result cache for campaign jobs.
 *
 * Keys are the content-addressed strings built by job_graph.hh (machine
 * config hash + kernel spec + canonical run options); payloads are the
 * JSON encodings from serialize.hh. The cache is an in-memory map with
 * an optional JSONL spill file: existing lines are loaded on open, every
 * store appends one line, so a re-run of the same campaign — same
 * process or a later one — only computes the delta.
 *
 * Spill format (one entry per line):
 *   {"key":"measure|<hash>|triad:n=4096|protocol=cold,...","payload":{...}}
 *
 * Later lines win on duplicate keys (append-only updates). All methods
 * are thread-safe; the executor calls them from pool workers.
 *
 * Crash-only recovery: a line truncated by a crash (or any other
 * unparsable line) is moved to `<spill>.quarantine` on load — counted
 * in rfl_cache_quarantined_lines_total — and costs one re-simulation,
 * never the cache. Spill appends retry transient failures with
 * backoff (support/retry.hh); compaction fsyncs the temp file and its
 * directory before the rename, so a crash at any instant leaves
 * either the old or the new spill fully intact on disk.
 */

#ifndef RFL_CAMPAIGN_RESULT_CACHE_HH
#define RFL_CAMPAIGN_RESULT_CACHE_HH

#include <map>
#include <mutex>
#include <set>
#include <string>

namespace rfl::campaign
{

/** Hit/miss accounting of one cache instance. */
struct CacheStats
{
    size_t hits = 0;        ///< lookups answered from memory
    size_t misses = 0;      ///< lookups that found nothing
    size_t stores = 0;      ///< entries stored this run
    size_t preloaded = 0;   ///< entries loaded from the spill file on open
    size_t quarantined = 0; ///< unparsable spill lines set aside on open
};

/** See file comment. */
class ResultCache
{
  public:
    /** In-memory only. */
    ResultCache() = default;

    /**
     * Backed by JSONL file @p spillPath: loads existing entries (a
     * missing file is fine — it is created on first store) and appends
     * every store.
     */
    explicit ResultCache(const std::string &spillPath);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** @return true and fill @p payload on a hit; counts hit/miss. */
    bool lookup(const std::string &key, std::string *payload);

    /** Insert/overwrite @p key; appends to the spill file when set.
     *  @p payload is one JSON value (serialize.hh), nested as is. */
    void store(const std::string &key, const std::string &payload);

    /** @return true without touching hit/miss counters. */
    bool contains(const std::string &key) const;

    /**
     * Garbage-collect: drop every entry whose machine-config hash is
     * not in @p liveConfigHashes (hex strings as rendered by
     * hashToHex), then rewrite the spill file to exactly the
     * surviving entries — the JSONL file otherwise grows without
     * bound across runs, one line per store, duplicates included.
     * The rewrite is atomic (temp file + rename), so a crash
     * mid-compaction leaves the old spill intact. @return the number
     * of entries dropped.
     */
    size_t compact(const std::set<std::string> &liveConfigHashes);

    CacheStats stats() const;
    size_t size() const;
    const std::string &spillPath() const { return spillPath_; }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> entries_;
    std::string spillPath_;
    CacheStats stats_;
};

/**
 * @return the machine-config hash segment of a cache key — every key
 * kind (job_graph.hh) is "<kind>|<config hash>|..." — or "" for a key
 * that doesn't follow the convention (never dropped by compact()).
 */
std::string cacheKeyConfigHash(const std::string &key);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_RESULT_CACHE_HH
