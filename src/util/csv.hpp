// Minimal, fast CSV reading/writing for trace files.
//
// The trace formats we handle (Google clusterdata-style CSV, GWA) are
// plain comma-separated numeric/text tables without quoting or embedded
// commas, so this module deliberately implements the simple dialect:
// fields split on ',', records split on '\n'. Lines come from a block
// reader (LineReader) as string_views into one reused buffer — zero
// allocations per line or field.
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace cgc::util {

/// Reads an istream in large blocks and hands out its lines as views
/// into one reused buffer — the framing of a std::getline loop without
/// its per-character cost:
///
///   * a line ends at '\n', which is not part of it; a '\r' before it
///     is kept (callers decide whether CR is data);
///   * an unterminated last line is returned like any other;
///   * the buffer starts at kBlockBytes and doubles whenever one line
///     does not fit, so any line length is framed exactly.
///
/// Blocks come from the stream's buffer (rdbuf()->sgetn). When that
/// buffer can say how much input is ready (a pipe, a file), a read asks
/// for no more than that, so a slow producer's lines are not held back
/// waiting for a full block. A buffer that throws marks the stream bad,
/// as std::getline would, and ends the input. The reader owns what it
/// has taken from the stream: input read ahead but not yet returned is
/// gone when the reader is destroyed.
class LineReader {
 public:
  /// Initial (and minimum) buffer size.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  /// Reads from `in`, which must outlive the reader. A stream that is
  /// not good() reads as empty.
  explicit LineReader(std::istream& in);

  /// Sets *line to the next line; false at end of input. The view stays
  /// valid until the next call.
  bool next(std::string_view* line) {
    const char* const data = buffer_.data();
    if (const void* nl =
            std::memchr(data + scan_, '\n', end_ - scan_)) {
      const auto stop = static_cast<std::size_t>(
          static_cast<const char*>(nl) - data);
      *line = std::string_view(data + begin_, stop - begin_);
      begin_ = scan_ = stop + 1;
      return true;
    }
    return next_after_refill(line);
  }

 private:
  /// Slow path of next(): the buffer holds no complete line.
  bool next_after_refill(std::string_view* line);
  /// Appends the next block after end_; returns the bytes read (0 at
  /// end of input).
  std::size_t read_block();

  std::istream& in_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  ///< start of the first unreturned line
  std::size_t scan_ = 0;   ///< [begin_, scan_) is known to hold no '\n'
  std::size_t end_ = 0;    ///< end of buffered input
  bool at_eof_ = false;
};

/// A read-only std::streambuf over a file descriptor (typically a stdin
/// pipe), for LineReader. Each refill is one read(2), so it returns as
/// soon as the pipe has any input, and in_avail() reports the bytes it
/// holds: a LineReader over it hands out a slow producer's lines as they
/// arrive. (std::cin synced with stdio cannot: its buffer reports
/// nothing ready, so each block read is an fread that waits for a full
/// block or end of input.) A read that fails — including one
/// interrupted by a signal whose handler was installed without
/// SA_RESTART — ends the input, which is how a shutdown handler stops a
/// blocked read. The descriptor is neither owned nor closed.
class FdInputBuf : public std::streambuf {
 public:
  /// Reads `fd`, which must stay open while the buffer is in use.
  explicit FdInputBuf(int fd);
  FdInputBuf(const FdInputBuf&) = delete;
  FdInputBuf& operator=(const FdInputBuf&) = delete;

 protected:
  int_type underflow() override;

 private:
  /// A read(2) asks for at most this much: a Linux pipe's default
  /// capacity.
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 16;

  int fd_;
  std::vector<char> buffer_;
};

/// Splits `line` on `sep` into `out` (cleared first). Views point into
/// `line`; they are invalidated when the underlying buffer changes.
void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>* out);

/// Parses a signed integer field; throws cgc::util::Error on garbage.
std::int64_t parse_int(std::string_view field);

namespace detail {
/// std::from_chars path of try_parse_int, for fields over 18 digits.
bool parse_int_slow(std::string_view field, std::int64_t* out);
}  // namespace detail

/// Non-throwing parse_int (which calls it) for hot row parsers: accepts
/// an optional '-' and decimal digits in int64 range — no spaces, '+'
/// or hex — and stores the value in *out. Up to 18 digits go through a
/// plain digit loop, which cannot overflow; longer fields (leading
/// zeros, values near the int64 limits) go to std::from_chars, which
/// defines the grammar. Returns false on garbage, leaving *out
/// unspecified.
inline bool try_parse_int(std::string_view field, std::int64_t* out) {
  const char* p = field.data();
  const char* const end = p + field.size();
  const bool negative = p != end && *p == '-';
  p += negative ? 1 : 0;
  const auto digits = static_cast<std::size_t>(end - p);
  if (digits == 0) {
    return false;
  }
  if (digits > 18) {
    return detail::parse_int_slow(field, out);
  }
  std::uint64_t value = 0;
  for (; p != end; ++p) {
    const auto digit = static_cast<unsigned>(static_cast<unsigned char>(*p)) -
                       static_cast<unsigned>('0');
    if (digit > 9) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = negative ? -static_cast<std::int64_t>(value)
                  : static_cast<std::int64_t>(value);
  return true;
}

/// Parses a finite double field; throws cgc::util::Error on garbage and
/// on nan/inf/infinity (which std::from_chars would accept).
double parse_double(std::string_view field);

/// Throws cgc::util::DataError with "path:line: what". Format readers
/// wrap field-level failures with this so a truncated or garbled record
/// (for example a final row cut off mid-write) reports the offending
/// row instead of a bare field message, in the bad-input class that
/// callers such as plan::PlanRunner tell apart from program errors.
[[noreturn]] void throw_parse_error(const std::string& path,
                                    std::size_t line_number,
                                    const std::string& what);

/// Streaming CSV reader over a file. Usage:
///   CsvReader r(path);
///   while (r.next_record()) { use r.fields(); }
class CsvReader {
 public:
  /// Opens `path` for reading; throws Error if it cannot be opened.
  explicit CsvReader(const std::string& path, char sep = ',');

  /// Advances to the next non-empty, non-comment record. Lines starting
  /// with '#' or ';' are skipped (SWF/GWA headers use ';'); a trailing
  /// '\r' is stripped.
  bool next_record();

  /// As next_record(), without splitting the record into fields(): for
  /// readers that parse line() in one pass of their own.
  bool next_line();

  /// Text of the current record (CR stripped); valid until the next
  /// next_record()/next_line().
  std::string_view line() const { return line_; }

  /// Fields of the current record; valid until the next next_record().
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// 1-based line number of the current record (for error messages).
  std::size_t line_number() const { return line_number_; }

  /// Path this reader was opened on (for error messages).
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ifstream in_;
  LineReader lines_;
  char sep_;
  std::string_view line_;
  std::vector<std::string_view> fields_;
  std::size_t line_number_ = 0;
};

/// Buffered CSV writer.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws Error if it cannot be created.
  explicit CsvWriter(const std::string& path, char sep = ',');

  /// Writes one record; values are written verbatim.
  void write_record(const std::vector<std::string>& values);

  /// Writes a raw line (e.g. a comment header).
  void write_line(std::string_view line);

  /// Flushes buffered output to disk.
  void flush();

 private:
  std::ofstream out_;
  char sep_;
};

/// Formats a double with enough precision to round-trip trace values
/// without inflating file sizes (up to 10 significant digits, trailing
/// zeros trimmed).
std::string format_double(double value);

}  // namespace cgc::util
