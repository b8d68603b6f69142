#include "mst/scenario/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "mst/common/fmt.hpp"
#include "mst/common/lexer.hpp"
#include "mst/obs/metrics.hpp"

namespace mst::scenario {

namespace {

// ---------------------------------------------------------------------------
// Checksums and mixing

/// CRC-32 (reflected 0xEDB88320, the zlib polynomial) over the payload
/// bytes.  Torn appends are the expected failure mode; the CRC additionally
/// catches bit rot and hand-edited records.
std::uint32_t crc32(std::string_view data) {
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
// Line-oriented `tag fields...` records read through the one lexer; string
// fields are escaped-to-end-of-line (only `\\`, `\n`, `\r` need escaping —
// the rest of the line, `#` included, is taken verbatim by
// `Lexer::rest_of_line`), integers render with `std::to_chars` and doubles
// with the sanctioned `%.17g` formatter, so every value survives the round
// trip bit-for-bit.

/// Appends each value in decimal, each followed by a blank.
template <class... Ints>
void put(std::string& out, Ints... values) {
  char digits[24];
  ((out.append(digits, std::to_chars(digits, digits + sizeof digits, values).ptr) += ' '), ...);
}

/// Appends `tag`, then `text` escaped to one line, then the line break.
void put_line(std::string& out, const char* tag, const std::string& text) {
  out += tag;
  for (const char ch : text) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += ch;
    }
  }
  out += '\n';
}

/// The string field at the rest of the lexer's line, unescaped.
std::string text_field(Lexer& lex) {
  const std::string_view text = lex.rest_of_line();
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

/// Throws unless the fields just read were all on the tag's line and
/// nothing follows them.
void end_fields(const Lexer& lex, std::size_t tag_line, const char* tag) {
  if (lex.line() != tag_line || !lex.line_ended()) {
    throw std::invalid_argument(std::string("journal: malformed ") + tag + " line");
  }
}

CellMode mode_from(std::string_view name) {
  if (name == "solve") return CellMode::kSolve;
  if (name == "within") return CellMode::kWithin;
  if (name == "stream") return CellMode::kStream;
  throw std::invalid_argument("journal: unknown cell mode '" + std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// File framing

constexpr const char* kMagic = "mstjournal";
constexpr std::size_t kVersion = 1;

std::string render_header(std::size_t shard_index, std::size_t shard_count,
                          std::size_t total_cells, std::uint64_t fingerprint) {
  std::string out = kMagic;
  out += ' ';
  put(out, kVersion, shard_index, shard_count, total_cells, fingerprint);
  out.back() = '\n';
  return out;
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
  std::size_t version = 0;
  try {
    Lexer lex(std::string_view(content).substr(0, eol), "journal header");
    lex.expect(kMagic);
    version = lex.next_index("version");
    if (version == kVersion) {
      out.shard_index = lex.next_index("shard index");
      out.shard_count = lex.next_index("shard count");
      out.total_cells = lex.next_index("cell count");
      out.fingerprint = lex.next_index("fingerprint");
      lex.expect_end();
    }
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(path + ": not a journal (bad header)");
  }
  if (version != kVersion) {
    throw std::runtime_error(path + ": unsupported journal version " + std::to_string(version));
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
    std::size_t payload_size = 0;
    std::size_t crc = 0;
    try {
      Lexer frame(std::string_view(content).substr(at, eol - at), "frame line");
      frame.expect("rec");
      payload_size = frame.next_index("payload size");
      crc = frame.next_index("checksum");
      frame.expect_end();
    } catch (const std::invalid_argument&) {
      break;  // torn or corrupt frame line
    }
    const std::size_t payload_at = eol + 1;
    // The payload is followed by its framing newline; both must fit.
    if (content.size() - payload_at <= payload_size) break;  // torn payload
    const std::string_view payload = std::string_view(content).substr(payload_at, payload_size);
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

void fsync_file(int fd, const std::string& path) {
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

/// `DIR/shard-<i>-of-<N>.mstj`.
std::string journal_path(const std::string& dir, std::size_t shard_index,
                         std::size_t shard_count) {
  std::ostringstream os;
  os << dir << "/shard-" << shard_index << "-of-" << shard_count << ".mstj";
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Public payload codec

std::uint64_t grid_fingerprint(const std::vector<Cell>& cells) {
  std::uint64_t h = mix(cells.size());
  const auto fold_field = [&h](const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, std::string>) {
      h = fold(h, field);
    } else {
      h = fold(h, static_cast<std::uint64_t>(field));
    }
  };
  for (const Cell& cell : cells) {
    std::apply([&](const auto&... field) { (fold_field(field), ...); }, key_fields(cell));
  }
  return h;
}

std::string encode_record(const CellOutcome& outcome) {
  const Cell& cell = outcome.cell;
  std::string out;
  out.reserve(256 + 96 * outcome.metrics.size());
  out += "cell ";
  put(out, cell.index, cell.size, cell.instance, cell.platform_seed, cell.seed,
      cell.workload_seed, cell.n, cell.deadline);
  out += to_string(cell.mode);
  out += '\n';
  put_line(out, "spec ", cell.spec_name);
  put_line(out, "kind ", cell.kind);
  put_line(out, "class ", cell.cls);
  put_line(out, "algo ", cell.algorithm);
  put_line(out, "wl ", cell.workload_label);
  out += "out ";
  put(out, outcome.tasks, outcome.makespan, outcome.lower_bound, outcome.optimal ? 1 : 0,
      outcome.peak_backlog);
  out.back() = '\n';
  out += "num ";
  for (const double value :
       {outcome.throughput, outcome.wall_ms, outcome.mean_latency, outcome.regret}) {
    out += format_double(value);
    out += ' ';
  }
  out.back() = '\n';
  put_line(out, "err ", outcome.error);
  for (const obs::MetricSample& sample : outcome.metrics) {
    out += "metric ";
    put(out, static_cast<int>(sample.type), static_cast<int>(sample.determinism), sample.value,
        sample.count, sample.sum);
    for (const std::int64_t bucket : sample.buckets) put(out, bucket);
    put_line(out, "", sample.name);
  }
  return out;
}

CellOutcome decode_record(std::string_view payload) {
  CellOutcome out;
  Lexer lex(payload, "journal record");
  bool saw_cell = false;
  while (!lex.done()) {
    const std::string_view tag = lex.next("record tag");
    const std::size_t line = lex.line();
    if (tag == "cell") {
      Cell& cell = out.cell;
      cell.index = lex.next_index("cell index");
      cell.size = lex.next_index("size");
      cell.instance = lex.next_index("instance");
      cell.platform_seed = lex.next_index("platform seed");
      cell.seed = lex.next_index("cell seed");
      cell.workload_seed = lex.next_index("workload seed");
      cell.n = lex.next_index("task count");
      cell.deadline = lex.next_time("deadline");
      cell.mode = mode_from(lex.next("cell mode"));
      end_fields(lex, line, "cell");
      saw_cell = true;
    } else if (tag == "spec") {
      out.cell.spec_name = text_field(lex);
    } else if (tag == "kind") {
      out.cell.kind = text_field(lex);
    } else if (tag == "class") {
      out.cell.cls = text_field(lex);
    } else if (tag == "algo") {
      out.cell.algorithm = text_field(lex);
    } else if (tag == "wl") {
      out.cell.workload_label = text_field(lex);
    } else if (tag == "out") {
      out.tasks = lex.next_index("tasks");
      out.makespan = lex.next_time("makespan");
      out.lower_bound = lex.next_time("lower bound");
      out.optimal = lex.next_index("optimal flag") != 0;
      out.peak_backlog = lex.next_index("peak backlog");
      end_fields(lex, line, "out");
    } else if (tag == "num") {
      out.throughput = lex.next_double("throughput");
      out.wall_ms = lex.next_double("wall time");
      out.mean_latency = lex.next_double("mean latency");
      out.regret = lex.next_double("regret");
      end_fields(lex, line, "num");
    } else if (tag == "err") {
      out.error = text_field(lex);
    } else if (tag == "metric") {
      obs::MetricSample& sample = out.metrics.emplace_back();
      const std::size_t type = lex.next_index("metric type");
      const std::size_t determinism = lex.next_index("determinism class");
      if (type > static_cast<std::size_t>(obs::MetricType::kHistogram) ||
          determinism > static_cast<std::size_t>(obs::DeterminismClass::kWallTime)) {
        throw std::invalid_argument("journal: bad metric type or determinism class");
      }
      sample.type = static_cast<obs::MetricType>(type);
      sample.determinism = static_cast<obs::DeterminismClass>(determinism);
      sample.value = lex.next_time("metric value");
      sample.count = lex.next_time("metric count");
      sample.sum = lex.next_time("metric sum");
      for (std::int64_t& bucket : sample.buckets) bucket = lex.next_time("metric bucket");
      if (lex.line() != line) throw std::invalid_argument("journal: malformed metric line");
      // The name is the rest of the line past the 21 numeric fields.
      sample.name = text_field(lex);
    } else {
      throw std::invalid_argument("journal: unknown record tag '" + std::string(tag) + "'");
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
  fsync_file(fd_, path_);
  if (content.empty()) sync_directory(dir);
  flusher_ = std::thread([this] { flush_loop(); });
}

Journal::~Journal() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
    queued_cv_.notify_all();
  }
  flusher_.join();
  ::close(fd_);
}

void Journal::append(const CellOutcome& outcome) {
  const std::string payload = encode_record(outcome);
  const std::string frame_header =
      "rec " + std::to_string(payload.size()) + ' ' + std::to_string(crc32(payload)) + '\n';

  UniqueLock lock(mutex_);
  while (failure_ == nullptr && pending_.size() >= kMaxPendingBytes) flushed_cv_.wait(lock);
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  // The flusher sleeps only on an empty queue, so only the first frame of
  // a group needs to wake it.
  if (pending_.empty()) queued_cv_.notify_all();
  pending_ += frame_header;
  pending_ += payload;
  pending_ += '\n';
  ++queued_;
}

void Journal::sync() {
  UniqueLock lock(mutex_);
  const std::uint64_t mine = queued_;
  while (failure_ == nullptr && durable_ < mine) flushed_cv_.wait(lock);
  if (failure_ != nullptr) std::rethrow_exception(failure_);
}

void Journal::flush_loop() {
  // Flush pipelining (Aether, PVLDB 2010): workers queue frames while this
  // thread writes and fsyncs the previous group with the lock dropped.
  // `group` and `pending_` swap roles each round, so once both have grown
  // to a group's size no flush allocates.  Groups land in queue order, one
  // at a time, and the first failure is sticky: the loop ends, so nothing
  // is written after a frame that may be torn.
  std::string group;
  UniqueLock lock(mutex_);
  while (true) {
    while (pending_.empty() && !stopping_) queued_cv_.wait(lock);
    if (pending_.empty()) return;  // stopping, and everything queued landed
    group.swap(pending_);
    const std::uint64_t covered = queued_;
    if (group.size() >= kMaxPendingBytes) flushed_cv_.notify_all();  // appends held back
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
      write_all(fd_, path_, group);
      fsync_file(fd_, path_);
    } catch (...) {
      error = std::current_exception();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    group.clear();
    lock.lock();
    flush_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    if (error == nullptr) {
      durable_ = covered;
      ++syncs_;
    } else {
      failure_ = error;
    }
    flushed_cv_.notify_all();
    if (failure_ != nullptr) return;
  }
}

std::uint64_t Journal::syncs() const {
  LockGuard lock(mutex_);
  return syncs_;
}

std::uint64_t Journal::flush_us() const {
  LockGuard lock(mutex_);
  return flush_ns_ / 1000;
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
    if (any && (header.shard_count != first.shard_count ||
                header.total_cells != first.total_cells ||
                header.fingerprint != first.fingerprint)) {
      throw std::runtime_error(path + ": shard journals disagree (different sweep or seed?); "
                                      "merge needs all shards of one run in one directory");
    }
    if (header.shard_index >= header.shard_count) {
      throw std::runtime_error(path + ": shard index out of range");
    }
    // The header's counts size the merge only once the files can back
    // them: every shard has a journal here, and each journal holds all the
    // cells of its shard (a record takes two lines at least).  With
    // distinct shards and cells below, that is every cell exactly once.
    const std::size_t owned =
        header.total_cells > header.shard_index
            ? (header.total_cells - header.shard_index - 1) / header.shard_count + 1
            : 0;
    const auto short_of = [&](const std::string& held) {
      return std::runtime_error(path + ": " + held + " the " + std::to_string(owned) +
                                " cells of shard " + std::to_string(header.shard_index) +
                                "; resume that shard before merging");
    };
    if (header.shard_count > paths.size()) {
      throw std::runtime_error(dir + ": only " + std::to_string(paths.size()) + " of " +
                               std::to_string(header.shard_count) +
                               " shard journals; run (or resume) the missing shards "
                               "before merging");
    }
    if (owned > content.size() / 2) throw short_of("is too short to hold");
    if (!any) {
      first = header;
      any = true;
      shard_seen.assign(first.shard_count, false);
      slots.resize(first.total_cells);
      filled.assign(first.total_cells, false);
    }
    std::size_t valid_end = 0;
    JournalReplay replay = scan_records(content, body, valid_end);
    if (replay.outcomes.size() < owned) {
      throw short_of("holds " + std::to_string(replay.outcomes.size()) + " of");
    }
    if (shard_seen[header.shard_index]) {
      throw std::runtime_error(path + ": duplicate journal for shard " +
                               std::to_string(header.shard_index));
    }
    shard_seen[header.shard_index] = true;

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
  return slots;
}

}  // namespace mst::scenario
