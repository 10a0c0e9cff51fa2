#ifndef E2EBENCH_PROCESS_H_
#define E2EBENCH_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "measure.h"

namespace e2e {

/// A child process whose stdin the benchmark writes and whose stdout
/// it reads. The child dies
/// with the benchmark (PR_SET_PDEATHSIG), and the destructor stops it
/// and waits for it, so no run leaves a process behind.
class Child {
 public:
  /// Starts `argv` (argv[0] is a path) with this process's
  /// environment plus `env` ("NAME=value" entries, which win). Returns
  /// null on failure.
  static std::unique_ptr<Child> Spawn(const std::vector<std::string>& argv,
                                      const std::vector<std::string>& env,
                                      std::string* error);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads one stdout line (without '\n'); false on EOF or timeout.
  bool ReadLine(std::string* line, double timeout_s);
  /// Writes `line` plus '\n' to the child's stdin; false when it is gone.
  bool WriteLine(const std::string& line);
  /// VmHWM of the live child in MB (0 when unreadable).
  double PeakRssMb() const;
  /// Waits for a clean exit; false on a non-zero status or timeout
  /// (the child is then killed).
  bool Wait(double timeout_s);
  /// SIGKILL and reap; idempotent.
  void Kill();

  pid_t pid() const { return pid_; }
  Clock::time_point started() const { return started_; }

 private:
  Child(pid_t pid, int in_fd, int out_fd);
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  Clock::time_point started_;
};

/// A started pcx_serve and its measured set-up time: spawn to its
/// "PORT <n>" line (snapshot load and solver build).
struct Served {
  std::unique_ptr<Child> process;
  int port = 0;
  double setup_s = 0.0;
};

/// Spawns `argv` with `env` added and waits up to `timeout_s` for the
/// PORT line. Null process on failure.
Served StartServer(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env, double timeout_s,
                   std::string* error);

/// One blocking-connect, line-oriented TCP connection to 127.0.0.1.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(int port, std::string* error);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` plus '\n'; false when the peer is gone.
  bool Send(const std::string& line);
  /// Moves every complete line already buffered into `out`; false when
  /// the peer closed. Call after poll() reports the fd readable.
  bool ReadAvailable(std::vector<std::string>* out);
  /// Blocking request/reply with a timeout; false on failure.
  bool Call(const std::string& line, std::string* reply, double timeout_s);

  int fd() const { return fd_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace e2e

#endif  // E2EBENCH_PROCESS_H_
