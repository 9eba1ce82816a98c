// Microbenchmark: MD5 throughput. Every RTS carries an MD5 digest of the
// upcoming DATA frame, so the hash sits on the per-packet send path.
//
// Cases (select with --filter):
//  * md5_<size>      — one-shot Md5::hash over a <size>-byte buffer; the
//                      record's `bytes` field is the total hashed.
//  * payload_digest  — mac::payload_digest, the RTS digest of one frame.
#include <cstdint>
#include <string>

#include "crypto/md5.hpp"
#include "mac/frame.hpp"
#include "micro_common.hpp"

int main(int argc, char** argv) {
  using namespace manet;
  bench::MicroHarness h("micro_md5",
                        "MD5 throughput per buffer size and the per-RTS "
                        "payload digest.",
                        argc, argv);

  for (std::size_t size : {64u, 512u, 4096u, 65536u}) {
    const std::string data(size, 'x');
    // ~8 MiB hashed per case at --reps=1, whatever the buffer size.
    const std::size_t reps = h.reps((8u << 20) / size);
    h.run_case(
        "md5_" + std::to_string(size),
        [&] {
          for (std::size_t i = 0; i < reps; ++i) {
            bench::keep(crypto::Md5::hash(data));
          }
          return static_cast<std::uint64_t>(reps);
        },
        [&](exp::Record& rec) {
          rec.add("bytes", static_cast<std::uint64_t>(reps * size));
        });
  }

  const std::size_t reps = h.reps(200000);
  h.run_case("payload_digest", [&] {
    for (std::uint64_t id = 1; id <= reps; ++id) {
      bench::keep(mac::payload_digest(7, id, 512));
    }
    return static_cast<std::uint64_t>(reps);
  });
  return h.finish();
}
