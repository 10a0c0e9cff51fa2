#include "process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace e2e {

namespace {

// Milliseconds left until `deadline`, for poll(); never negative.
int MillisLeft(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Moves complete lines from `buffer` into `out`.
void SplitLines(std::string* buffer, std::vector<std::string>* out) {
  size_t start = 0;
  for (size_t nl = buffer->find('\n'); nl != std::string::npos;
       nl = buffer->find('\n', start)) {
    out->emplace_back(*buffer, start, nl - start);
    start = nl + 1;
  }
  buffer->erase(0, start);
}

}  // namespace

Child::Child(pid_t pid, int in_fd, int out_fd)
    : pid_(pid), in_fd_(in_fd), out_fd_(out_fd), started_(Clock::now()) {}

std::unique_ptr<Child> Child::Spawn(const std::vector<std::string>& argv,
                                    const std::vector<std::string>& env,
                                    std::string* error) {
  int fds[2], in[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (pipe2(in, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return nullptr;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // Built before fork: the child only calls async-signal-safe functions.
  std::vector<char*> envp;
  for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    const size_t name_len = eq == nullptr ? std::strlen(*e) : eq - *e + 1;
    bool overridden = false;
    for (const std::string& o : env) {
      overridden = overridden || o.compare(0, name_len, *e, name_len) == 0;
    }
    if (!overridden) envp.push_back(*e);
  }
  envp.push_back(nullptr);
  const pid_t parent = getpid();
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {fds[0], fds[1], in[0], in[1]}) close(fd);
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    signal(SIGPIPE, SIG_DFL);  // the benchmark ignores it; exec keeps that
    dup2(in[0], STDIN_FILENO);
    dup2(fds[1], STDOUT_FILENO);
    execve(args[0], args.data(), envp.data());
    _exit(127);
  }
  close(fds[1]);
  close(in[0]);
  std::unique_ptr<Child> child(new Child(pid, in[1], fds[0]));
  child->started_ = start;
  return child;
}

Child::~Child() {
  Kill();
  if (in_fd_ >= 0) close(in_fd_);
  if (out_fd_ >= 0) close(out_fd_);
}

bool Child::WriteLine(const std::string& line) {
  const std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + sent, data.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Child::ReadLine(std::string* line, double timeout_s) {
  const Clock::time_point deadline = After(timeout_s);
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, MillisLeft(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

double Child::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

bool Child::Wait(double timeout_s) {
  const Clock::time_point deadline = After(timeout_s);
  while (pid_ > 0) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

void Child::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Served StartServer(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env, double timeout_s,
                   std::string* error) {
  Served served;
  std::unique_ptr<Child> child = Child::Spawn(argv, env, error);
  if (child == nullptr) return served;
  std::string line;
  if (!child->ReadLine(&line, timeout_s) || line.rfind("PORT ", 0) != 0) {
    *error = "server printed no PORT line (got '" + line + "')";
    return served;
  }
  served.setup_s =
      std::chrono::duration<double>(Clock::now() - child->started()).count();
  served.port = std::atoi(line.c_str() + 5);
  served.process = std::move(child);
  return served;
}

std::unique_ptr<Connection> Connection::Open(int port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return nullptr;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Send(const std::string& line) {
  std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::ReadAvailable(std::vector<std::string>* out) {
  char chunk[1 << 16];
  while (true) {
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    SplitLines(&buffer_, out);
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool Connection::Call(const std::string& line, std::string* reply,
                      double timeout_s) {
  if (!Send(line)) return false;
  const Clock::time_point deadline = After(timeout_s);
  std::vector<std::string> lines;
  while (true) {
    if (!ReadAvailable(&lines)) return false;
    if (!lines.empty()) {
      *reply = lines.front();
      return lines.size() == 1;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, MillisLeft(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
  }
}

}  // namespace e2e
