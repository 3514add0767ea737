#include "util/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "util/check.hpp"

namespace cgc::util {

void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>* out) {
  out->clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out->push_back(line.substr(start));
      return;
    }
    out->push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::int64_t parse_int(std::string_view field) {
  std::int64_t value = 0;
  CGC_CHECK_MSG(try_parse_int(field, &value),
                "bad integer field: '" + std::string(field) + "'");
  return value;
}

bool detail::parse_int_slow(std::string_view field, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

double parse_double(std::string_view field) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  // from_chars also accepts nan, inf and infinity; no trace field means
  // those, and a NaN would poison every sort and sum downstream.
  CGC_CHECK_MSG(ec == std::errc() && ptr == field.data() + field.size() &&
                    std::isfinite(value),
                "bad double field: '" + std::string(field) + "'");
  return value;
}

void throw_parse_error(const std::string& path, std::size_t line_number,
                       const std::string& what) {
  throw DataError(path + ":" + std::to_string(line_number) + ": " + what);
}

LineReader::LineReader(std::istream& in)
    : in_(in), buffer_(kBlockBytes), at_eof_(!in.good()) {}

bool LineReader::next_after_refill(std::string_view* line) {
  while (!at_eof_) {
    // Keep the partial line, drop what was returned, and make room.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buffer_.size()) {
      buffer_.resize(buffer_.size() * 2);
    }
    scan_ = end_;
    if (read_block() == 0) {
      at_eof_ = true;
      break;
    }
    if (next(line)) {
      return true;
    }
  }
  if (begin_ == end_) {
    return false;
  }
  *line = std::string_view(buffer_.data() + begin_, end_ - begin_);
  begin_ = scan_ = end_;
  return true;
}

std::size_t LineReader::read_block() {
  std::streambuf* const source = in_.rdbuf();
  auto want = static_cast<std::streamsize>(buffer_.size() - end_);
  try {
    std::streamsize ready = source->in_avail();
    if (ready == 0) {
      // Block for the first byte, then ask again: the underflow may
      // have buffered what is ready.
      if (std::istream::traits_type::eq_int_type(
              source->sgetc(), std::istream::traits_type::eof())) {
        return 0;
      }
      ready = source->in_avail();
    }
    if (ready < 0) {
      return 0;
    }
    if (ready > 0) {
      want = std::min(want, ready);
    }
    const std::streamsize got = source->sgetn(buffer_.data() + end_, want);
    end_ += static_cast<std::size_t>(got);
    return static_cast<std::size_t>(got);
  } catch (...) {
    in_.setstate(std::ios::badbit);
    return 0;
  }
}

FdInputBuf::FdInputBuf(int fd) : fd_(fd), buffer_(kBufferBytes) {}

FdInputBuf::int_type FdInputBuf::underflow() {
  if (gptr() < egptr()) {
    return traits_type::to_int_type(*gptr());
  }
  const ssize_t got = ::read(fd_, buffer_.data(), buffer_.size());
  if (got <= 0) {
    return traits_type::eof();  // end of input, a signal, or an error
  }
  setg(buffer_.data(), buffer_.data(),
       buffer_.data() + static_cast<std::size_t>(got));
  return traits_type::to_int_type(*gptr());
}

CsvReader::CsvReader(const std::string& path, char sep)
    : path_(path), in_(path), lines_(in_), sep_(sep) {
  CGC_CHECK_MSG(in_.good(), "cannot open file for reading: " + path);
}

bool CsvReader::next_line() {
  while (lines_.next(&line_)) {
    ++line_number_;
    if (!line_.empty() && line_.back() == '\r') {
      line_.remove_suffix(1);
    }
    if (line_.empty() || line_.front() == '#' || line_.front() == ';') {
      continue;
    }
    return true;
  }
  // The reader ends on clean EOF or on a stream error; only the former
  // may end the file silently.
  CGC_CHECK_MSG(!in_.bad(), "I/O error while reading " + path_);
  return false;
}

bool CsvReader::next_record() {
  if (!next_line()) {
    return false;
  }
  split_fields(line_, sep_, &fields_);
  return true;
}

CsvWriter::CsvWriter(const std::string& path, char sep)
    : out_(path), sep_(sep) {
  CGC_CHECK_MSG(out_.good(), "cannot open file for writing: " + path);
}

void CsvWriter::write_record(const std::vector<std::string>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out_.put(sep_);
    }
    out_ << values[i];
  }
  out_.put('\n');
}

void CsvWriter::write_line(std::string_view line) {
  out_ << line << '\n';
}

void CsvWriter::flush() { out_.flush(); }

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace cgc::util
