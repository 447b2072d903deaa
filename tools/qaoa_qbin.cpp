/**
 * @file
 * qaoa_qbin — round-trip tool for the qbin binary circuit format (run
 * with --help for the commands).
 *
 * encode parses OpenQASM 2.0 (the toQasm() dialect) and writes a qbin
 * circuit document; decode accepts either a circuit document or an
 * artifact container (qaoa_compile --qbin / a serve cache .cce file)
 * and writes the circuit back out as QASM text.  inspect prints the
 * header, sizes, op histogram and — for artifacts — the metadata
 * record without converting anything.  roundtrip encodes, decodes and
 * verifies the result is bit-identical to the parse (exit 1 when not),
 * reporting both byte sizes.
 *
 * Exit codes: 0 success, 1 failure (I/O, malformed input, or a
 * roundtrip mismatch), 2 usage error.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "circuit/qasm_parser.hpp"
#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/fs.hpp"

namespace {

using namespace qaoa;

std::string
readWholeFile(const std::string &path)
{
    std::string bytes;
    if (!fs::readFile(path, bytes))
        throw std::runtime_error("cannot read " + path);
    return bytes;
}

void
writeWholeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    if (!out.good())
        throw std::runtime_error("cannot write " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good())
        throw std::runtime_error("short write to " + path);
}

/** The circuit document inside @p bytes (itself for kind=circuit,
 *  the embedded one for kind=artifact). */
std::string
circuitDocOf(const std::string &bytes)
{
    if (bytes.size() > 4 &&
        static_cast<unsigned char>(bytes[4]) == circuit::qbin::kKindArtifact)
        return circuit::qbin::decodeArtifact(bytes).circuit;
    return bytes;
}

void
printCircuitSummary(const circuit::Circuit &c, std::size_t doc_bytes)
{
    std::cout << "qubits:       " << c.numQubits() << "\n"
              << "gates:        " << c.gates().size() << "\n"
              << "depth:        " << c.depth() << "\n"
              << "doc bytes:    " << doc_bytes << "\n";
    for (const auto &[name, count] : c.opCounts())
        std::cout << "  op " << name << ": " << count << "\n";
}

int
run(int argc, char **argv)
{
    std::vector<std::string> args;
    circuit::QasmParseOptions parse_options;
    cli::FlagTable flags(
        "usage: qaoa_qbin COMMAND ...\n"
        "  encode IN.qasm OUT.qbin    QASM -> qbin\n"
        "  decode IN.qbin OUT.qasm    qbin -> QASM (circuit or artifact)\n"
        "  inspect IN.qbin            header, sizes, ops, metadata\n"
        "  roundtrip IN.qasm          verify encode/decode is bit-exact\n"
        "options:");
    flags.integer("--max-qubits", "N",
                  "largest QASM register for encode/roundtrip (default 30)",
                  parse_options.max_qubits);
    if (const std::optional<int> exit = flags.parse(argc, argv, &args))
        return *exit;
    const auto usage = [&] {
        flags.printHelp(std::cerr);
        return cli::kExitUsage;
    };
    if (args.empty())
        return usage();
    const std::string command = args[0];
    const std::vector<std::string> paths(args.begin() + 1, args.end());

    if (command == "encode") {
        if (paths.size() != 2)
            return usage();
        const circuit::Circuit parsed =
            circuit::parseQasm(readWholeFile(paths[0]), parse_options);
        const std::string doc = circuit::qbin::encodeCircuit(parsed);
        writeWholeFile(paths[1], doc);
        std::cout << "wrote " << paths[1] << " (" << doc.size()
                  << " bytes, " << parsed.gates().size() << " gates)\n";
        return 0;
    }

    if (command == "decode") {
        if (paths.size() != 2)
            return usage();
        const circuit::Circuit decoded = circuit::qbin::decodeCircuit(
            circuitDocOf(readWholeFile(paths[0])));
        writeWholeFile(paths[1], circuit::toQasm(decoded));
        std::cout << "wrote " << paths[1] << " ("
                  << decoded.gates().size() << " gates)\n";
        return 0;
    }

    if (command == "inspect") {
        if (paths.size() != 1)
            return usage();
        const std::string bytes = readWholeFile(paths[0]);
        if (!circuit::qbin::looksLikeQbin(bytes))
            throw std::runtime_error(paths[0] + ": not a qbin document");
        const bool artifact =
            static_cast<unsigned char>(bytes[4]) ==
            circuit::qbin::kKindArtifact;
        std::cout << "kind:         "
                  << (artifact ? "artifact" : "circuit") << "\n"
                  << "version:      " << int(bytes[5]) << "\n"
                  << "file bytes:   " << bytes.size() << "\n";
        if (artifact) {
            const circuit::qbin::Artifact art =
                circuit::qbin::decodeArtifact(bytes);
            printCircuitSummary(
                circuit::qbin::decodeCircuit(art.circuit),
                art.circuit.size());
            for (const auto &[key, value] : art.meta.fields())
                std::cout << "  meta " << key << ": " << value << "\n";
        } else {
            printCircuitSummary(circuit::qbin::decodeCircuit(bytes),
                                bytes.size());
        }
        return 0;
    }

    if (command == "roundtrip") {
        if (paths.size() != 1)
            return usage();
        const std::string qasm = readWholeFile(paths[0]);
        const circuit::Circuit parsed =
            circuit::parseQasm(qasm, parse_options);
        const std::string doc = circuit::qbin::encodeCircuit(parsed);
        const circuit::Circuit decoded = circuit::qbin::decodeCircuit(doc);
        if (!circuit::qbin::bitIdentical(parsed, decoded)) {
            std::cerr << "roundtrip MISMATCH: decoded circuit is not "
                         "bit-identical\n";
            return 1;
        }
        std::cout << "roundtrip ok: " << parsed.gates().size()
                  << " gates bit-identical\n"
                  << "qasm bytes:   " << qasm.size() << "\n"
                  << "qbin bytes:   " << doc.size() << "\n";
        return 0;
    }

    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    // QE105: classify decode/I-O failures as a structured one-line
    // report and the documented exit code 1 — never an abort.
    return qaoa::toolMain("qaoa_qbin", [&] { return run(argc, argv); });
}
