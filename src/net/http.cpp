#include "net/http.hpp"

#include <algorithm>
#include <cctype>

namespace mfa::net {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses a decimal Content-Length; false on garbage or overflow past
/// `max` (callers cap at the body limit, so overflow folds into 413).
bool parse_content_length(std::string_view value, std::size_t max,
                          std::size_t* out) {
  value = trim(value);
  if (value.empty()) return false;
  std::size_t n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::size_t>(c - '0');
    if (n > max) {
      *out = n;  // caller distinguishes "too big" from "malformed"
      return true;
    }
  }
  *out = n;
  return true;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("connection");
  const std::string value =
      connection != nullptr ? to_lower(*connection) : std::string();
  if (version == "HTTP/1.0") return value == "keep-alive";
  return value != "close";
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string format_response(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

std::string format_request(const std::string& method,
                           const std::string& target,
                           const std::string& host,
                           const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: " + host + "\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: keep-alive\r\n";
  out += "\r\n";
  out += body;
  return out;
}

// ---- RequestParser -----------------------------------------------------

RequestParser::RequestParser(ParserLimits limits) : limits_(limits) {}

RequestParser::State RequestParser::fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_ = std::move(message);
  return state_;
}

RequestParser::State RequestParser::feed(std::string_view bytes) {
  // Bytes that arrive while a request is complete belong to the next
  // pipelined request: buffer them for reset() to replay. A poisoned
  // parser drops them; its connection closes after the error reply.
  if (state_ == State::kError) return state_;
  buffer_.append(bytes.data(), bytes.size());
  if (state_ != State::kIncomplete) return state_;
  return advance();
}

RequestParser::State RequestParser::advance() {
  if (!have_head_) {
    const std::size_t head_end = buffer_.find("\r\n\r\n", consumed_);
    if (head_end == std::string::npos) {
      if (buffer_.size() - consumed_ > limits_.max_head) {
        return fail(431, "request head exceeds limit");
      }
      return state_;
    }
    if (head_end - consumed_ > limits_.max_head) {
      return fail(431, "request head exceeds limit");
    }
    // ---- Request line.
    std::size_t pos = consumed_;
    const std::size_t line_end = buffer_.find("\r\n", pos);
    std::string_view line(buffer_.data() + pos, line_end - pos);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        sp2 == sp1 + 1 || line.find(' ', sp2 + 1) != std::string_view::npos) {
      return fail(400, "malformed request line");
    }
    request_.method = std::string(line.substr(0, sp1));
    request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(line.substr(sp2 + 1));
    if (request_.method.empty() || request_.target.empty() ||
        request_.target[0] != '/') {
      return fail(400, "malformed request line");
    }
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
      return fail(505, "unsupported HTTP version");
    }
    // ---- Headers.
    pos = line_end + 2;
    while (pos < head_end) {
      const std::size_t eol = buffer_.find("\r\n", pos);
      std::string_view header(buffer_.data() + pos, eol - pos);
      const std::size_t colon = header.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return fail(400, "malformed header line");
      }
      std::string name = to_lower(header.substr(0, colon));
      if (name.find(' ') != std::string::npos ||
          name.find('\t') != std::string::npos) {
        return fail(400, "malformed header name");
      }
      request_.headers.emplace_back(
          std::move(name), std::string(trim(header.substr(colon + 1))));
      pos = eol + 2;
    }
    // ---- Framing.
    if (request_.header("transfer-encoding") != nullptr) {
      return fail(501, "transfer-encoding not supported");
    }
    body_needed_ = 0;
    if (const std::string* length = request_.header("content-length");
        length != nullptr) {
      if (!parse_content_length(*length, limits_.max_body, &body_needed_)) {
        return fail(400, "malformed content-length");
      }
      if (body_needed_ > limits_.max_body) {
        return fail(413, "body exceeds limit");
      }
    }
    have_head_ = true;
    consumed_ = head_end + 4;
  }
  if (buffer_.size() - consumed_ < body_needed_) return state_;
  request_.body = buffer_.substr(consumed_, body_needed_);
  consumed_ += body_needed_;
  state_ = State::kComplete;
  return state_;
}

void RequestParser::reset() {
  // Keep pipelined leftovers; drop everything already parsed.
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  have_head_ = false;
  body_needed_ = 0;
  request_ = HttpRequest{};
  state_ = State::kIncomplete;
  error_status_ = 400;
  error_.clear();
  if (!buffer_.empty()) advance();
}

// ---- ResponseParser ----------------------------------------------------

ResponseParser::ResponseParser(ParserLimits limits) : limits_(limits) {}

ResponseParser::State ResponseParser::fail(std::string message) {
  state_ = State::kError;
  error_ = std::move(message);
  return state_;
}

ResponseParser::State ResponseParser::feed(std::string_view bytes) {
  if (state_ != State::kIncomplete) return state_;
  buffer_.append(bytes.data(), bytes.size());
  return advance();
}

ResponseParser::State ResponseParser::advance() {
  if (!have_head_) {
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_head) {
        return fail("response head exceeds limit");
      }
      return state_;
    }
    const std::size_t line_end = buffer_.find("\r\n");
    std::string_view line(buffer_.data(), line_end);
    // "HTTP/1.1 NNN reason"
    if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0 ||
        line[8] != ' ' || !std::isdigit(static_cast<unsigned char>(line[9])) ||
        !std::isdigit(static_cast<unsigned char>(line[10])) ||
        !std::isdigit(static_cast<unsigned char>(line[11]))) {
      return fail("malformed status line");
    }
    response_.status = (line[9] - '0') * 100 + (line[10] - '0') * 10 +
                       (line[11] - '0');
    body_needed_ = 0;
    std::size_t pos = line_end + 2;
    while (pos < head_end) {
      const std::size_t eol = buffer_.find("\r\n", pos);
      std::string_view header(buffer_.data() + pos, eol - pos);
      const std::size_t colon = header.find(':');
      if (colon == std::string_view::npos) {
        return fail("malformed header line");
      }
      const std::string name = to_lower(header.substr(0, colon));
      const std::string_view value = trim(header.substr(colon + 1));
      if (name == "content-length") {
        if (!parse_content_length(value, limits_.max_body, &body_needed_) ||
            body_needed_ > limits_.max_body) {
          return fail("bad content-length");
        }
      } else if (name == "content-type") {
        response_.content_type = std::string(value);
      } else if (name == "transfer-encoding") {
        return fail("transfer-encoding not supported");
      }
      pos = eol + 2;
    }
    have_head_ = true;
    body_start_ = head_end + 4;
  }
  if (buffer_.size() - body_start_ < body_needed_) return state_;
  response_.body = buffer_.substr(body_start_, body_needed_);
  state_ = State::kComplete;
  return state_;
}

}  // namespace mfa::net
