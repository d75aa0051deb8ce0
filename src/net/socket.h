// Thin POSIX TCP helpers shared by the server (non-blocking, epoll-driven)
// and the client (blocking with timeouts). All functions return Status and
// never throw; fds are plain ints owned by the caller.
#pragma once

#include <cstdint>
#include <string>

#include "util/status.h"

namespace sealdb::net {

// Create a listening socket bound to host:port (SO_REUSEADDR). port 0
// binds an ephemeral port; *bound_port reports the actual one.
Status ListenTcp(const std::string& host, uint16_t port, int backlog,
                 int* listen_fd, uint16_t* bound_port);

// Connect with a deadline: the socket is put in non-blocking mode for the
// connect(2) itself so a black-holed address fails with Status::TimedOut
// after `connect_timeout_millis` instead of hanging for the kernel's
// SYN-retry eternity. 0 falls back to a plain blocking connect. The
// returned fd is blocking; TCP_NODELAY is enabled.
Status ConnectTcp(const std::string& host, uint16_t port, int* fd,
                  int connect_timeout_millis = 0);

Status SetNonBlocking(int fd);
Status SetNoDelay(int fd);
// 0 disables the timeout (block forever).
Status SetRecvTimeout(int fd, int millis);

// Blocking I/O for the client side. ReadSome returns after one read() that
// delivered 1..n bytes (*got says how many); ReadFully loops until all `n`
// arrived. Both fail with IOError on EOF and with TimedOut when a
// SO_RCVTIMEO deadline expires first.
Status WriteFully(int fd, const char* data, size_t n);
Status ReadSome(int fd, char* scratch, size_t n, size_t* got);
Status ReadFully(int fd, char* scratch, size_t n);

void CloseFd(int fd);

}  // namespace sealdb::net
