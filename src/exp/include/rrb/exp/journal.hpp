#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "rrb/exp/artifact.hpp"

/// \file journal.hpp
/// The manifest-journal file format shared by campaign resume, shard
/// merging and the distributed executor's workers: an append-only JSONL
/// file holding one header line (naming the campaign and its spec
/// fingerprint) followed by one flushed line per completed cell. This
/// header is the only code that reads or writes the format.
///
/// Loading is crash-tolerant by construction. A process killed mid-write
/// leaves a truncated final line; such a line fails to parse as flat JSON
/// and is skipped, so the cell it would have recorded simply recomputes on
/// resume — bit-identically, because cell records are pure in
/// (spec, cell). The loader additionally reports the byte size of the
/// clean prefix so writers can cut the partial tail before appending;
/// without that repair an append would concatenate a fresh record onto the
/// partial line and lose both records.

namespace rrb::exp {

/// A loaded manifest journal.
struct Journal {
  /// Completed cells by cell key. Later lines win, so a journal holding a
  /// cell twice (e.g. merged from two worker journals that both computed
  /// it around a crash) stays consistent — the records are identical
  /// anyway, being pure in (spec, cell).
  std::map<std::string, JsonObject> records;

  bool saw_header = false;  ///< a fingerprint header line was present

  /// Byte size of the clean prefix: everything up to and including the
  /// newline of the last complete line. Smaller than the file size exactly
  /// when the file ends in a truncated partial record (killed writer);
  /// JournalWriter cuts the file back to this size before appending.
  std::uintmax_t clean_size = 0;

  std::size_t skipped = 0;  ///< damaged/truncated lines skipped
};

/// Load the journal at `path` (a missing file is an empty journal). Lines
/// that do not parse as flat JSON, or that parse without a `key` field, are
/// skipped and counted in `skipped`. Throws std::runtime_error when the
/// journal carries a header with a fingerprint other than `fingerprint`
/// (resuming across spec changes would silently mix incompatible cells) or
/// cell records with no header at all (records that cannot be attributed
/// to a spec must not be reused).
[[nodiscard]] Journal load_journal(const std::string& path,
                                   const std::string& fingerprint);

/// Append journal lines to `path`, repairing a truncated tail first: when
/// `journal.clean_size` is short of the file's size, the partial final
/// line is cut off (the loader already skipped it, so no information is
/// lost). Writes the `{campaign, fingerprint, cells}` header when the
/// journal has none. Throws std::runtime_error when the file cannot be
/// opened for writing.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, const Journal& journal,
                const std::string& campaign_name,
                const std::string& fingerprint, std::size_t total_cells);

  /// Append one record line and flush it, so the cell survives however the
  /// process dies afterwards.
  void append(const JsonObject& record);

  void close() { out_.close(); }

 private:
  std::ofstream out_;
};

/// Merge the journals at `sources` into the journal at `target` (`rrb_campaign
/// --merge` and the distributed driver's worker-journal merge). Two-phase:
/// every source and the target are loaded with load_journal first, so a
/// foreign fingerprint or headerless records throw before a single byte is
/// written and a refused merge leaves the target as it was. Then every
/// record the target lacks is appended through JournalWriter — sources in
/// the given order, each source's records in key order, a cell held by
/// several sources taken once (the records are identical, being pure in
/// (spec, cell)). Damaged lines, such as a killed writer's truncated tail,
/// are skipped on load and never reach the target. Creates the target's
/// directory when there is something to append. Returns the number of
/// records appended.
std::size_t merge_journals(const std::vector<std::string>& sources,
                           const std::string& target,
                           const std::string& campaign_name,
                           const std::string& fingerprint,
                           std::size_t total_cells);

}  // namespace rrb::exp
