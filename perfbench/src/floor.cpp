#include "floor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kN = 64;      // matmul order
constexpr std::size_t kExps = 8192;  // exp() calls
constexpr int kNumbers = 512;        // numbers the text kernel formats and parses
constexpr int kKeys = 1000;          // keys it scans, as many as crowd users
constexpr int kLookups = 8;          // linear key scans per text kernel run
constexpr int kRpcKernels = 4;       // text kernel runs per RpcFloor request
constexpr int kPasses = 3;           // kernel runs or round trips per sample

// Keeps the kernel's result observable so the optimizer cannot drop it.
volatile double g_sink = 0.0;

double reference_kernel() {
  static const auto inputs = [] {
    std::array<std::vector<double>, 2> m;
    for (auto& v : m) v.resize(kN * kN);
    for (std::size_t i = 0; i < kN * kN; ++i) {
      m[0][i] = 0.5 + 1e-3 * static_cast<double>(i % 97);
      m[1][i] = 1.5 - 1e-3 * static_cast<double>(i % 89);
    }
    return m;
  }();
  const std::vector<double>& a = inputs[0];
  const std::vector<double>& b = inputs[1];
  std::vector<double> c(kN * kN, 0.0);
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t k = 0; k < kN; ++k) {
      const double aik = a[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  double acc = 0.0;
  for (std::size_t i = 0; i < kExps; ++i)
    acc += std::exp(-c[i % (kN * kN)] * 1e-2);
  return acc;
}

// The service path's kernel: text work of the kind a crowd request does
// (JSON numbers formatted and parsed back, API keys found by a linear
// scan), so that it slows as requests do. The FP-bound matmul kernel does
// not: on the shared VM the benchmark was defined on it ran 35% slow for
// minutes while requests ran at their usual speed.
double text_kernel() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (int i = 0; i < kKeys; ++i)
      k.push_back("gptc-key-" + std::to_string(7919 * i + 104729) +
                  "-0123456789abcdef0123456789abcdef");
    return k;
  }();
  std::string text;
  char number[32];
  for (int i = 0; i < kNumbers; ++i) {
    std::snprintf(number, sizeof number, "%.17g,", 0.1 + 1.37e-3 * i);
    text += number;
  }
  double acc = 0.0;
  for (const char* p = text.c_str(); *p != '\0';) {
    char* end = nullptr;
    acc += std::strtod(p, &end);
    p = end + 1;  // past the comma
  }
  for (int l = 0; l < kLookups; ++l) {
    const std::string& wanted = keys[static_cast<std::size_t>(
        (l * 613 + 997) % kKeys)];
    for (const std::string& k : keys)
      if (k == wanted) {
        acc += static_cast<double>(k.size());
        break;
      }
  }
  return acc;
}

double time_reference_kernel_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + reference_kernel();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

double sample_floor_ms(std::vector<double>* calls) {
  std::vector<double> t;
  for (int i = 0; i < kPasses; ++i) t.push_back(time_reference_kernel_ms());
  if (calls != nullptr) calls->insert(calls->end(), t.begin(), t.end());
  std::nth_element(t.begin(), t.begin() + static_cast<long>(t.size() / 2),
                   t.end());
  return t[t.size() / 2];
}

RpcFloor::RpcFloor() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      (client_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) < 0 ||
      ::connect(client_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      (server_fd_ = ::accept(listener, nullptr, nullptr)) < 0) {
    if (listener >= 0) ::close(listener);
    if (client_fd_ >= 0) ::close(client_fd_);
    throw std::runtime_error("RpcFloor: loopback connection failed");
  }
  ::close(listener);
  const int one = 1;
  ::setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(server_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  echo_ = std::thread([this] { echo(); });
}

RpcFloor::~RpcFloor() {
  ::shutdown(client_fd_, SHUT_WR);  // the echo thread reads EOF and exits
  echo_.join();
  ::close(client_fd_);
  ::close(server_fd_);
}

void RpcFloor::echo() noexcept {
  char byte = 0;
  while (::read(server_fd_, &byte, 1) == 1) {
    for (int i = 0; i < kRpcKernels; ++i) g_sink = g_sink + text_kernel();
    if (::write(server_fd_, &byte, 1) != 1) return;
  }
}

double RpcFloor::sample_ms(std::vector<double>* calls) {
  std::vector<double> t;
  for (int i = 0; i < kPasses; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    char byte = 1;
    if (::write(client_fd_, &byte, 1) != 1 || ::read(client_fd_, &byte, 1) != 1)
      throw std::runtime_error("RpcFloor: round trip failed");
    t.push_back(std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  }
  if (calls != nullptr) calls->insert(calls->end(), t.begin(), t.end());
  std::nth_element(t.begin(), t.begin() + static_cast<long>(t.size() / 2),
                   t.end());
  return t[t.size() / 2];
}

double normalize_time(double raw, double adjacent_floor_ms,
                      double reference_floor_ms) {
  return raw * reference_floor_ms / adjacent_floor_ms;
}

}  // namespace perfbench
