#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sealdb::net {

namespace {

Status ErrnoStatus(const char* op) {
  return Status::IOError(op, std::strerror(errno));
}

Status ParseAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* h = host.empty() ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, h, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address", host);
  }
  return Status::OK();
}

}  // namespace

Status ListenTcp(const std::string& host, uint16_t port, int backlog,
                 int* listen_fd, uint16_t* bound_port) {
  sockaddr_in addr;
  Status s = ParseAddr(host, port, &addr);
  if (!s.ok()) return s;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = ErrnoStatus("bind");
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    Status st = ErrnoStatus("listen");
    CloseFd(fd);
    return st;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      Status st = ErrnoStatus("getsockname");
      CloseFd(fd);
      return st;
    }
    *bound_port = ntohs(actual.sin_port);
  }
  *listen_fd = fd;
  return Status::OK();
}

Status ConnectTcp(const std::string& host, uint16_t port, int* fd,
                  int connect_timeout_millis) {
  sockaddr_in addr;
  Status s = ParseAddr(host, port, &addr);
  if (!s.ok()) return s;

  int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock < 0) return ErrnoStatus("socket");

  if (connect_timeout_millis <= 0) {
    if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status st = ErrnoStatus("connect");
      CloseFd(sock);
      return st;
    }
    (void)SetNoDelay(sock);
    *fd = sock;
    return Status::OK();
  }

  // Deadline-bounded connect: start the handshake non-blocking, poll for
  // writability, then read SO_ERROR for the real outcome.
  s = SetNonBlocking(sock);
  if (!s.ok()) {
    CloseFd(sock);
    return s;
  }
  int rc = ::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status st = ErrnoStatus("connect");
    CloseFd(sock);
    return st;
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = sock;
    pfd.events = POLLOUT;
    int ready;
    do {
      ready = ::poll(&pfd, 1, connect_timeout_millis);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      Status st = ErrnoStatus("poll(connect)");
      CloseFd(sock);
      return st;
    }
    if (ready == 0) {
      CloseFd(sock);
      return Status::TimedOut("connect timed out", host);
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(sock, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      Status st = Status::IOError("connect", std::strerror(err != 0 ? err
                                                                    : errno));
      CloseFd(sock);
      return st;
    }
  }
  // Back to blocking for the caller's WriteFully/ReadFully discipline.
  int flags = ::fcntl(sock, F_GETFL, 0);
  if (flags < 0 || ::fcntl(sock, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    Status st = ErrnoStatus("fcntl(clear O_NONBLOCK)");
    CloseFd(sock);
    return st;
  }
  (void)SetNoDelay(sock);
  *fd = sock;
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Status SetRecvTimeout(int fd, int millis) {
  timeval tv;
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

Status WriteFully(int fd, const char* data, size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as an
    // EPIPE Status, not a process-killing SIGPIPE.
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write");
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadSome(int fd, char* scratch, size_t n, size_t* got) {
  for (;;) {
    ssize_t r = ::read(fd, scratch, n);
    if (r > 0) {
      *got = static_cast<size_t>(r);
      return Status::OK();
    }
    if (r == 0) return Status::IOError("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::TimedOut("read timed out");
    }
    return ErrnoStatus("read");
  }
}

Status ReadFully(int fd, char* scratch, size_t n) {
  while (n > 0) {
    size_t got = 0;
    Status s = ReadSome(fd, scratch, n, &got);
    if (!s.ok()) return s;
    scratch += got;
    n -= got;
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace sealdb::net
