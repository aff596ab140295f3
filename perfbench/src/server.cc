#include "server.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& stderr_path,
                             const std::vector<int>& cpus) {
  const int err_fd =
      ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err_fd < 0) throw std::runtime_error("cannot open " + stderr_path);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(err_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(err_fd, 2);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int cpu : cpus) CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(err_fd);
  pid_ = pid;
  const Clock::time_point t0 = Clock::now();
  while (port_ == 0) {
    std::ifstream in(stderr_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("listening on port ", 0) == 0) {
        port_ = std::atoi(line.c_str() + 18);
      }
    }
    if (port_ != 0) break;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up; see " +
                               stderr_path);
    }
    if (SecondsSince(t0) > 30.0) {
      Stop();
      throw std::runtime_error("server did not report its port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

void ServerProcess::Stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(t0) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  clockid_t clock;
  timespec ts;
  if (::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("cannot read the server's CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<int> ReserveLastCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return {};
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(cpus.back(), &mine);
  if (::sched_setaffinity(0, sizeof(mine), &mine) != 0) return {};
  cpus.pop_back();
  return cpus;
}

int ConnectLoopback(int port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

LineClient::LineClient(int port) : fd_(ConnectLoopback(port, true)) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to the server");
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::string> LineClient::Pipeline(
    const std::vector<std::string>& lines, double timeout_s) {
  std::string out;
  for (const std::string& l : lines) out.append(l).push_back('\n');
  size_t sent = 0;
  std::vector<std::string> responses;
  const Clock::time_point t0 = Clock::now();
  while (responses.size() < lines.size()) {
    if (SecondsSince(t0) > timeout_s) {
      throw std::runtime_error("timed out waiting for responses");
    }
    pollfd pfd{fd_, static_cast<short>(POLLIN | (sent < out.size() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    if (sent < out.size() && (pfd.revents & POLLOUT)) {
      const ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (w > 0) sent += static_cast<size_t>(w);
      if (w < 0 && errno != EAGAIN && errno != EINTR) {
        throw std::runtime_error("send failed");
      }
    }
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) throw std::runtime_error("server closed the connection");
      if (r < 0 && errno != EAGAIN && errno != EINTR) {
        throw std::runtime_error("recv failed");
      }
      if (r > 0) pending_.append(buf, static_cast<size_t>(r));
      size_t start = 0;
      for (size_t nl = pending_.find('\n', start); nl != std::string::npos;
           nl = pending_.find('\n', start)) {
        responses.push_back(pending_.substr(start, nl - start));
        start = nl + 1;
      }
      pending_.erase(0, start);
    }
  }
  return responses;
}

bool FieldText(std::string_view response, std::string_view key,
               std::string_view* value) {
  const std::string needle = " " + std::string(key) + "=";
  const size_t at = response.find(needle);
  if (at == std::string_view::npos) return false;
  const size_t begin = at + needle.size();
  const size_t end = response.find(' ', begin);
  *value = response.substr(begin, end == std::string_view::npos
                                      ? std::string_view::npos
                                      : end - begin);
  return true;
}

double Field(const std::string& response, const std::string& key,
             double fallback) {
  std::string_view value;
  if (!FieldText(response, key, &value)) return fallback;
  return std::strtod(std::string(value).c_str(), nullptr);
}

}  // namespace perfbench
