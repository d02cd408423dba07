#include "net/http_message.h"

#include <cctype>

#include "net/json.h"

namespace vqi {
namespace net {
namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view FindHeader(const HttpHeaders& headers,
                            std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return value;
  }
  return {};
}

std::string JsonErrorBody(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeToString(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  JsonValue body = JsonValue::Object();
  body.Set("error", std::move(error));
  return body.Dump();
}

std::string_view HttpRequest::path() const {
  std::string_view t = target;
  size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

bool HttpRequest::keep_alive() const {
  std::string_view connection = FindHeader(headers, "connection");
  if (EqualsIgnoreCase(connection, "close")) return false;
  if (version == "HTTP/1.0") {
    return EqualsIgnoreCase(connection, "keep-alive");
  }
  return true;
}

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Content Too Large";
    case 414:
      return "URI Too Long";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool close) {
  std::string out;
  out.reserve(response.body.size() + 160);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += HttpReasonPhrase(response.status);
  out += "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: ";
    out += response.content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace net
}  // namespace vqi
