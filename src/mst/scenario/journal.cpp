#include "mst/scenario/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "mst/common/fmt.hpp"
#include "mst/obs/metrics.hpp"

namespace mst::scenario {

namespace {

// ---------------------------------------------------------------------------
// Checksums and mixing

/// CRC-32 (reflected 0xEDB88320, the zlib polynomial) over the payload
/// bytes.  Torn appends are the expected failure mode; the CRC additionally
/// catches bit rot and hand-edited records.
std::uint32_t crc32(const std::string& data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// SplitMix64's finalizer — the same stable mixing the seed derivation
/// uses, applied here to fold cell keys into the grid fingerprint.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) { return mix(h ^ mix(v)); }

std::uint64_t fold(std::uint64_t h, const std::string& s) {
  // FNV-1a over the bytes, then mixed in like any other word.
  std::uint64_t f = 0xCBF29CE484222325ull;
  for (const char ch : s) {
    f = (f ^ static_cast<unsigned char>(ch)) * 0x100000001B3ull;
  }
  return fold(h, f);
}

// ---------------------------------------------------------------------------
// Payload serialization
//
// Line-oriented `tag fields...` records; string fields are
// escaped-to-end-of-line (only `\\`, `\n`, `\r` need escaping — the rest of
// the line is taken verbatim), doubles render with the sanctioned `%.17g`
// formatter so every value survives the round trip bit-for-bit.

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    const char next = text[++i];
    out += next == 'n' ? '\n' : next == 'r' ? '\r' : next;
  }
  return out;
}

/// The tail of `line` after `prefix + ' '`, unescaped; "" when the line is
/// exactly the bare tag (an empty string field).
std::string string_field(const std::string& line, std::size_t tag_end) {
  if (tag_end >= line.size()) return {};
  return unescape(line.substr(tag_end + 1));
}

double parse_double(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw std::invalid_argument("journal: bad double '" + token + "'");
  }
  return value;
}

CellMode mode_from(const std::string& name) {
  if (name == "solve") return CellMode::kSolve;
  if (name == "within") return CellMode::kWithin;
  if (name == "stream") return CellMode::kStream;
  throw std::invalid_argument("journal: unknown cell mode '" + name + "'");
}

/// Throws when an extraction failed mid-line.
void expect(std::istream& is, const char* what) {
  if (!is) throw std::invalid_argument(std::string("journal: malformed ") + what + " line");
}

// ---------------------------------------------------------------------------
// File framing

constexpr const char* kMagic = "mstjournal";
constexpr int kVersion = 1;

std::string render_header(std::size_t shard_index, std::size_t shard_count,
                          std::size_t total_cells, std::uint64_t fingerprint) {
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << ' ' << shard_index << ' ' << shard_count << ' '
     << total_cells << ' ' << fingerprint << '\n';
  return os.str();
}

struct Header {
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t total_cells = 0;
  std::uint64_t fingerprint = 0;
};

/// Parses and validates the first line of `content`.  Returns the offset
/// just past the header's newline.
std::size_t parse_header(const std::string& path, const std::string& content, Header& out) {
  const std::size_t eol = content.find('\n');
  if (eol == std::string::npos) {
    throw std::runtime_error(path + ": not a journal (missing header line)");
  }
  std::istringstream is(content.substr(0, eol));
  std::string magic;
  int version = 0;
  is >> magic >> version >> out.shard_index >> out.shard_count >> out.total_cells >>
      out.fingerprint;
  if (!is || magic != kMagic) {
    throw std::runtime_error(path + ": not a journal (bad header)");
  }
  if (version != kVersion) {
    throw std::runtime_error(path + ": unsupported journal version " +
                             std::to_string(version));
  }
  return eol + 1;
}

/// Scans the framed records after the header.  `valid_end` is the offset
/// just past the last intact record: anything beyond it — a truncated
/// frame, a short payload, a CRC mismatch, any malformed header line — is
/// the torn tail.  Only the file's tail can legitimately tear (each group
/// of appends starts after the previous group's fsync, and nothing is
/// written after a failed one), so scanning stops at the first bad frame.
JournalReplay scan_records(const std::string& content, std::size_t start,
                           std::size_t& valid_end) {
  JournalReplay replay;
  std::size_t at = start;
  valid_end = start;
  while (at < content.size()) {
    const std::size_t eol = content.find('\n', at);
    if (eol == std::string::npos) break;  // torn frame header
    std::istringstream frame(content.substr(at, eol - at));
    std::string tag;
    std::size_t payload_size = 0;
    std::uint32_t crc = 0;
    frame >> tag >> payload_size >> crc;
    if (!frame || tag != "rec") break;
    const std::size_t payload_at = eol + 1;
    // The payload is followed by its framing newline; both must fit.
    if (payload_at + payload_size + 1 > content.size()) break;  // torn payload
    const std::string payload = content.substr(payload_at, payload_size);
    if (content[payload_at + payload_size] != '\n') break;
    if (crc32(payload) != crc) break;  // corrupt tail
    try {
      replay.outcomes.push_back(decode_record(payload));
    } catch (const std::invalid_argument&) {
      break;  // checksummed but undecodable: treat like any other bad tail
    }
    at = payload_at + payload_size + 1;
    valid_end = at;
  }
  replay.torn = valid_end < content.size();
  return replay;
}

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_all(int fd, const std::string& path, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(path + ": journal write failed: " + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void sync(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error(path + ": journal fsync failed: " + std::strerror(errno));
  }
}

/// fsyncs directory `dir`, so an entry just created in it survives a crash
/// (POSIX does not promise that from the new file's own fsync).
void sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw std::runtime_error(dir + ": cannot open journal directory: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int error = errno;
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error(dir + ": journal directory fsync failed: " + std::strerror(error));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public payload codec

std::uint64_t grid_fingerprint(const std::vector<Cell>& cells) {
  std::uint64_t h = mix(cells.size());
  for (const Cell& cell : cells) {
    h = fold(h, cell.index);
    h = fold(h, cell.spec_name);
    h = fold(h, cell.kind);
    h = fold(h, cell.cls);
    h = fold(h, cell.size);
    h = fold(h, cell.instance);
    h = fold(h, cell.platform_seed);
    h = fold(h, cell.algorithm);
    h = fold(h, static_cast<std::uint64_t>(cell.mode));
    h = fold(h, cell.n);
    h = fold(h, static_cast<std::uint64_t>(cell.deadline));
    h = fold(h, cell.seed);
    h = fold(h, cell.workload_label);
    h = fold(h, cell.workload_seed);
  }
  return h;
}

std::string journal_path(const std::string& dir, std::size_t shard_index,
                         std::size_t shard_count) {
  std::ostringstream os;
  os << dir << "/shard-" << shard_index << "-of-" << shard_count << ".mstj";
  return os.str();
}

std::string encode_record(const CellOutcome& outcome) {
  const Cell& cell = outcome.cell;
  std::ostringstream os;
  os << "cell " << cell.index << ' ' << cell.size << ' ' << cell.instance << ' '
     << cell.platform_seed << ' ' << cell.seed << ' ' << cell.workload_seed << ' ' << cell.n
     << ' ' << cell.deadline << ' ' << to_string(cell.mode) << '\n';
  os << "spec " << escape(cell.spec_name) << '\n';
  os << "kind " << escape(cell.kind) << '\n';
  os << "class " << escape(cell.cls) << '\n';
  os << "algo " << escape(cell.algorithm) << '\n';
  os << "wl " << escape(cell.workload_label) << '\n';
  os << "out " << outcome.tasks << ' ' << outcome.makespan << ' ' << outcome.lower_bound << ' '
     << (outcome.optimal ? 1 : 0) << ' ' << outcome.peak_backlog << '\n';
  os << "num " << format_double(outcome.throughput) << ' ' << format_double(outcome.wall_ms)
     << ' ' << format_double(outcome.mean_latency) << ' ' << format_double(outcome.regret)
     << '\n';
  os << "err " << escape(outcome.error) << '\n';
  for (const obs::MetricSample& sample : outcome.metrics) {
    os << "metric " << static_cast<int>(sample.type) << ' '
       << static_cast<int>(sample.determinism) << ' ' << sample.value << ' ' << sample.count
       << ' ' << sample.sum;
    for (const std::int64_t bucket : sample.buckets) os << ' ' << bucket;
    os << ' ' << escape(sample.name) << '\n';
  }
  return os.str();
}

CellOutcome decode_record(const std::string& payload) {
  CellOutcome out;
  std::istringstream lines(payload);
  std::string line;
  bool saw_cell = false;
  while (std::getline(lines, line)) {
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "cell") {
      std::string mode;
      is >> out.cell.index >> out.cell.size >> out.cell.instance >> out.cell.platform_seed >>
          out.cell.seed >> out.cell.workload_seed >> out.cell.n >> out.cell.deadline >> mode;
      expect(is, "cell");
      out.cell.mode = mode_from(mode);
      saw_cell = true;
    } else if (tag == "spec") {
      out.cell.spec_name = string_field(line, 4);
    } else if (tag == "kind") {
      out.cell.kind = string_field(line, 4);
    } else if (tag == "class") {
      out.cell.cls = string_field(line, 5);
    } else if (tag == "algo") {
      out.cell.algorithm = string_field(line, 4);
    } else if (tag == "wl") {
      out.cell.workload_label = string_field(line, 2);
    } else if (tag == "out") {
      int optimal = 0;
      is >> out.tasks >> out.makespan >> out.lower_bound >> optimal >> out.peak_backlog;
      expect(is, "out");
      out.optimal = optimal != 0;
    } else if (tag == "num") {
      std::string throughput;
      std::string wall;
      std::string latency;
      std::string regret;
      is >> throughput >> wall >> latency >> regret;
      expect(is, "num");
      out.throughput = parse_double(throughput);
      out.wall_ms = parse_double(wall);
      out.mean_latency = parse_double(latency);
      out.regret = parse_double(regret);
    } else if (tag == "err") {
      out.error = string_field(line, 3);
    } else if (tag == "metric") {
      obs::MetricSample sample;
      int type = 0;
      int determinism = 0;
      is >> type >> determinism >> sample.value >> sample.count >> sample.sum;
      for (std::int64_t& bucket : sample.buckets) is >> bucket;
      expect(is, "metric");
      sample.type = static_cast<obs::MetricType>(type);
      sample.determinism = static_cast<obs::DeterminismClass>(determinism);
      // The name is the rest of the line past the 21 numeric fields.
      std::string name;
      std::getline(is >> std::ws, name);
      sample.name = unescape(name);
      out.metrics.push_back(std::move(sample));
    } else if (!tag.empty()) {
      throw std::invalid_argument("journal: unknown record tag '" + tag + "'");
    }
  }
  if (!saw_cell) throw std::invalid_argument("journal: record without a cell line");
  return out;
}

// ---------------------------------------------------------------------------
// The append-only shard journal

Journal::Journal(const std::string& dir, std::size_t shard_index, std::size_t shard_count,
                 std::size_t total_cells, std::uint64_t fingerprint) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error(dir + ": cannot create journal directory: " + ec.message());
  path_ = journal_path(dir, shard_index, shard_count);

  const std::string content = slurp_file(path_);
  std::size_t valid_end = 0;
  if (content.empty()) {
    valid_end = 0;  // fresh journal: header written below
  } else {
    Header header;
    const std::size_t body = parse_header(path_, content, header);
    if (header.shard_index != shard_index || header.shard_count != shard_count ||
        header.total_cells != total_cells || header.fingerprint != fingerprint) {
      throw std::runtime_error(
          path_ + ": journal belongs to a different run (header mismatch); "
                  "point --journal at a fresh directory or rerun the original spec");
    }
    replay_ = scan_records(content, body, valid_end);
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error(path_ + ": cannot open journal: " + std::strerror(errno));
  }
  if (content.empty()) {
    write_all(fd_, path_, render_header(shard_index, shard_count, total_cells, fingerprint));
  } else if (replay_.torn) {
    // Drop the torn tail so the next append starts on a clean frame.
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      throw std::runtime_error(path_ + ": cannot truncate torn journal tail: " +
                               std::strerror(errno));
    }
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    throw std::runtime_error(path_ + ": cannot seek journal: " + std::strerror(errno));
  }
  sync(fd_, path_);
  if (content.empty()) sync_directory(dir);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::append(const CellOutcome& outcome) {
  const std::string payload = encode_record(outcome);
  std::ostringstream frame;
  frame << "rec " << payload.size() << ' ' << crc32(payload) << '\n' << payload << '\n';

  // Group commit (DeWitt et al., SIGMOD 1984).  Queue the frame; a caller
  // that finds no flush running becomes the leader, takes every queued
  // frame and writes + fsyncs them at once with the lock dropped, while
  // later callers queue the next group behind it.  Each caller returns
  // once a finished flush covers its own frame.  Groups land in queue
  // order, one at a time, and the first failure is sticky: nothing is
  // written after a frame that may be torn.
  UniqueLock lock(mutex_);
  pending_ += frame.str();
  const std::uint64_t mine = ++queued_;
  while (durable_ < mine) {
    if (failure_ != nullptr) std::rethrow_exception(failure_);
    if (flushing_) {
      flushed_.wait(lock);
      continue;
    }
    flushing_ = true;
    std::string group;
    group.swap(pending_);
    const std::uint64_t covered = queued_;
    lock.unlock();
    std::exception_ptr error;
    try {
      write_all(fd_, path_, group);
      sync(fd_, path_);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    flushing_ = false;
    if (error == nullptr) {
      durable_ = covered;
      ++syncs_;
    } else {
      failure_ = error;
    }
    flushed_.notify_all();
  }
}

std::uint64_t Journal::syncs() const {
  LockGuard lock(mutex_);
  return syncs_;
}

// ---------------------------------------------------------------------------
// Merge

std::vector<CellOutcome> merge_journals(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".mstj") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) throw std::runtime_error(dir + ": cannot read journal directory: " + ec.message());
  if (paths.empty()) throw std::runtime_error(dir + ": no shard journals (shard-*.mstj) found");
  // Directory iteration order is unspecified; sort for deterministic error
  // reporting (the merged output is index-ordered regardless).
  std::sort(paths.begin(), paths.end());

  Header first;
  std::vector<bool> shard_seen;
  std::vector<CellOutcome> slots;
  std::vector<bool> filled;
  bool any = false;
  for (const std::string& path : paths) {
    const std::string content = slurp_file(path);
    Header header;
    const std::size_t body = parse_header(path, content, header);
    if (!any) {
      first = header;
      any = true;
      shard_seen.assign(first.shard_count, false);
      slots.resize(first.total_cells);
      filled.assign(first.total_cells, false);
    } else if (header.shard_count != first.shard_count ||
               header.total_cells != first.total_cells ||
               header.fingerprint != first.fingerprint) {
      throw std::runtime_error(path + ": shard journals disagree (different sweep or seed?); "
                                      "merge needs all shards of one run in one directory");
    }
    if (header.shard_index >= header.shard_count) {
      throw std::runtime_error(path + ": shard index out of range");
    }
    if (shard_seen[header.shard_index]) {
      throw std::runtime_error(path + ": duplicate journal for shard " +
                               std::to_string(header.shard_index));
    }
    shard_seen[header.shard_index] = true;

    std::size_t valid_end = 0;
    JournalReplay replay = scan_records(content, body, valid_end);
    for (CellOutcome& outcome : replay.outcomes) {
      const std::size_t index = outcome.cell.index;
      if (index >= first.total_cells || index % first.shard_count != header.shard_index) {
        throw std::runtime_error(path + ": record for cell " + std::to_string(index) +
                                 " does not belong to shard " +
                                 std::to_string(header.shard_index));
      }
      if (filled[index]) {
        throw std::runtime_error(path + ": duplicate record for cell " +
                                 std::to_string(index));
      }
      filled[index] = true;
      slots[index] = std::move(outcome);
    }
  }

  for (std::size_t s = 0; s < first.shard_count; ++s) {
    if (!shard_seen[s]) {
      throw std::runtime_error(dir + ": missing journal for shard " + std::to_string(s) +
                               " of " + std::to_string(first.shard_count) +
                               "; run (or resume) that shard before merging");
    }
  }
  std::size_t missing = 0;
  std::size_t first_missing = 0;
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      if (missing == 0) first_missing = i;
      ++missing;
    }
  }
  if (missing > 0) {
    throw std::runtime_error(
        dir + ": journals cover only " + std::to_string(filled.size() - missing) + " of " +
        std::to_string(filled.size()) + " cells (first missing: cell " +
        std::to_string(first_missing) + ", shard " +
        std::to_string(first_missing % first.shard_count) +
        "); resume the incomplete shard runs before merging");
  }
  return slots;
}

}  // namespace mst::scenario
