#include "obs/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sase {
namespace obs {
namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Writes all of `data` to `fd`, tolerating short writes and retrying
/// interrupted ones. MSG_NOSIGNAL: a peer that disconnects mid-response
/// (curl timeout, aborted scrape) must surface as EPIPE here, not as a
/// process-killing SIGPIPE on the serve thread. Hard errors abandon the
/// response — the peer gets a truncated reply, which a scraper treats as a
/// failed scrape; there is nothing better to do on a dead socket.
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void HttpEndpoint::Handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

Status HttpEndpoint::Start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("http endpoint already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            ") failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpEndpoint::AcceptLoop, this);
  return Status::Ok();
}

void HttpEndpoint::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() unblocks the accept(2) the thread is parked in. The accept
  // loop reads listen_fd_ until it exits, so the descriptor is closed (which
  // releases the port, and lets the number be reused) and reset only after
  // the join.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpEndpoint::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // EINTR and transient accept errors
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpEndpoint::ServeConnection(int fd) {
  // Read until the header terminator; 8 KiB is generous for "GET /path".
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  std::string line = request.substr(0, line_end);  // "GET /path HTTP/1.1"
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  Response response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = Response{405, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    std::string method = line.substr(0, sp1);
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    if (method != "GET" && method != "HEAD") {
      response = Response{405, "text/plain; charset=utf-8",
                          "only GET is served here\n"};
    } else {
      auto it = handlers_.find(path);
      if (it == handlers_.end()) {
        response = Response{404, "text/plain; charset=utf-8",
                            "unknown path; try /metrics /healthz /statusz\n"};
      } else {
        response = it->second();
      }
    }
    if (method == "HEAD") response.body.clear();
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " + std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += response.body;
  WriteAll(fd, out);
}

}  // namespace obs
}  // namespace sase
