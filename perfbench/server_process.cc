#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

// Parses "... listening on <host>:<port> (<n> rows, <t> pool threads, ..."
// out of the server log: the port to connect to and the pool size the
// server actually runs with.
bool FindListeningLine(const std::string& log_path, uint16_t* port,
                       int* pool_threads) {
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("listening on ");
    if (at == std::string::npos) continue;
    const size_t colon = line.find(':', at);
    const size_t rows = line.find(" rows, ", at);
    if (colon == std::string::npos || rows == std::string::npos) continue;
    const long value = std::strtol(line.c_str() + colon + 1, nullptr, 10);
    const long threads = std::strtol(line.c_str() + rows + 7, nullptr, 10);
    if (value > 0 && value < 65536 && threads > 0) {
      *port = static_cast<uint16_t>(value);
      *pool_threads = static_cast<int>(threads);
      return true;
    }
  }
  return false;
}

}  // namespace

bool ServerProcess::Start(const ServerLaunch& launch, double timeout_s,
                          std::string* error) {
  // Everything the child needs is prepared before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MCSORT_", 7) != 0) env_strings.push_back(*e);
  }
  for (const auto& [key, value] : launch.env) {
    env_strings.push_back(key + "=" + value);
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::string binary = launch.binary;
  char* argv[] = {binary.data(), nullptr};
  const pid_t parent = getpid();

  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (chdir(launch.work_dir.c_str()) != 0) _exit(127);
    const int fd =
        open(launch.log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(127);
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
    execve(argv[0], argv, envp.data());
    _exit(127);
  }
  pid_ = pid;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (FindListeningLine(launch.log_path, &port_, &pool_threads_)) {
      return true;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "mcsort_server exited during start-up (see " +
               launch.log_path + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop(1);
  *error = "mcsort_server did not report a port in time";
  return false;
}

double ServerProcess::PeakRssMib() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15 (clock ticks).
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  int status = 0;
  bool exited = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
