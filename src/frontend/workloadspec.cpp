#include "frontend/workloadspec.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"

namespace tileflow {

namespace {

class WorkloadParser
{
  public:
    WorkloadParser(const std::string& text, DiagnosticEngine& diags,
                   const ParseLimits& limits)
        : diags_(diags),
          limits_(limits),
          lex_(text, diags, limits),
          workload_("workload")
    {
    }

    std::optional<Workload>
    parse()
    {
        parseHeader();
        while (true) {
            const Token tok = lex_.peek();
            if (tok.isEnd()) {
                diags_.error("W506", tok.loc,
                             "missing '}' closing the workload block");
                break;
            }
            if (tok.isPunct('}')) {
                lex_.next();
                break;
            }
            parseStatement();
        }
        if (!lex_.atEnd() && !diags_.hasErrors()) {
            diags_.error("W506", lex_.loc(),
                         "trailing input after the workload block");
        }
        if (workload_.numOps() == 0 && !diags_.hasErrors()) {
            diags_.error("W507", SourceLoc{},
                         "workload declares no ops");
        }
        if (diags_.hasErrors())
            return std::nullopt;
        return std::move(workload_);
    }

  private:
    static std::string
    describe(const Token& tok)
    {
        return tok.isEnd() ? "end of input" : quoted(tok.text);
    }

    void
    parseHeader()
    {
        const Token head = lex_.peek();
        if (head.is("workload")) {
            lex_.next();
        } else {
            diags_.error("W501", head.loc,
                         concat("expected 'workload', got ",
                                describe(head)));
        }
        if (lex_.peek().kind == TokenKind::String)
            workload_ = Workload(lex_.next().text);
        if (lex_.peek().isPunct('{')) {
            lex_.next();
        } else {
            diags_.error("W501", lex_.loc(),
                         concat("expected '{' opening the workload "
                                "block, got ",
                                describe(lex_.peek())));
            sync();
            if (lex_.peek().isPunct('{'))
                lex_.next();
        }
    }

    void
    parseStatement()
    {
        const Token key = lex_.next();
        if (key.is("dim"))
            parseDim();
        else if (key.is("tensor"))
            parseTensor();
        else if (key.is("op"))
            parseOp();
        else {
            diags_.error("W502", key.loc,
                         concat("unknown workload key ", describe(key)));
            sync();
        }
    }

    bool
    countEntity(SourceLoc loc)
    {
        if (++entities_ > limits_.maxNodes) {
            if (!entityCapReported_) {
                diags_.error("W508", loc,
                             concat("workload exceeds the limit of ",
                                    limits_.maxNodes,
                                    " declarations"));
                entityCapReported_ = true;
            }
            return false;
        }
        return true;
    }

    void
    parseDim()
    {
        const Token name = lex_.peek();
        if (name.kind != TokenKind::Word) {
            diags_.error("W503", name.loc,
                         concat("expected a dim name, got ",
                                describe(name)));
            sync();
            return;
        }
        lex_.next();
        const Token extentTok = lex_.peek();
        int64_t extent = 0;
        if (extentTok.kind != TokenKind::Number ||
            !parseIntChecked(extentTok.text, extent)) {
            diags_.error("W503", extentTok.loc,
                         concat("expected an integer extent for dim '",
                                name.text, "', got ",
                                describe(extentTok)));
            sync();
            return;
        }
        lex_.next();
        if (extent < 1 || extent > limits_.maxExtent) {
            diags_.error("W503", extentTok.loc,
                         concat("dim '", name.text, "' extent ", extent,
                                " is outside [1, ", limits_.maxExtent,
                                "]"));
            return;
        }
        if (workload_.findDim(name.text) >= 0) {
            diags_.error("W504", name.loc,
                         concat("duplicate dim ", quoted(name.text)));
            return;
        }
        if (countEntity(name.loc))
            workload_.addDim(name.text, extent);
    }

    void
    parseTensor()
    {
        const Token name = lex_.peek();
        if (name.kind != TokenKind::Word) {
            diags_.error("W503", name.loc,
                         concat("expected a tensor name, got ",
                                describe(name)));
            sync();
            return;
        }
        lex_.next();
        Tensor tensor;
        tensor.name = name.text;
        if (!lex_.peek().isPunct('[')) {
            diags_.error("W503", lex_.loc(),
                         concat("expected '[' opening the shape of "
                                "tensor '",
                                name.text, "', got ",
                                describe(lex_.peek())));
            sync();
            return;
        }
        lex_.next();
        if (!parseShapeList(tensor.shape))
            return;
        // Optional dtype word (fp16 is the default).
        const Token dtype = lex_.peek();
        if (dtype.is("int8")) {
            lex_.next();
            tensor.dtype = DataType::Int8;
        } else if (dtype.is("fp16")) {
            lex_.next();
            tensor.dtype = DataType::Fp16;
        } else if (dtype.is("fp32")) {
            lex_.next();
            tensor.dtype = DataType::Fp32;
        }
        if (tensor.rank() > kMaxRank) {
            diags_.error("W512", name.loc,
                         concat("tensor ", quoted(name.text), " has rank ",
                                tensor.rank(), "; at most ", kMaxRank,
                                " is supported"));
            return;
        }
        if (workload_.findTensor(name.text) >= 0) {
            diags_.error("W504", name.loc,
                         concat("duplicate tensor ",
                                quoted(name.text)));
            return;
        }
        if (countEntity(name.loc))
            workload_.addTensor(std::move(tensor));
    }

    /** `]`-terminated comma list of shape expressions. */
    bool
    parseShapeList(std::vector<int64_t>& shape)
    {
        if (lex_.peek().isPunct(']')) {
            lex_.next();
            return true;
        }
        bool ok = true;
        while (true) {
            int64_t value = 0;
            if (parseShapeExpr(value)) {
                shape.push_back(value);
            } else {
                ok = false;
                syncList();
            }
            const Token sep = lex_.peek();
            if (sep.isPunct(',')) {
                lex_.next();
                continue;
            }
            if (sep.isPunct(']')) {
                lex_.next();
                return ok;
            }
            diags_.error("W503", sep.loc,
                         concat("expected ',' or ']' in shape list, "
                                "got ",
                                describe(sep)));
            return false;
        }
    }

    /**
     * term (('+'|'-') term)*, term := INT | DIM | INT '*' DIM,
     * evaluated against the declared dim extents.
     */
    bool
    parseShapeExpr(int64_t& out)
    {
        out = 0;
        int64_t sign = 1;
        while (true) {
            int64_t term = 0;
            if (!parseShapeTerm(term))
                return false;
            out += sign * term;
            if (out < -limits_.maxExtent || out > limits_.maxExtent) {
                diags_.error("W505", lex_.loc(),
                             "shape expression overflows the extent "
                             "limit");
                return false;
            }
            const Token next = lex_.peek();
            if (next.isPunct('+')) {
                sign = 1;
            } else if (next.isPunct('-')) {
                sign = -1;
            } else {
                break;
            }
            lex_.next();
        }
        if (out < 1) {
            diags_.error("W505", lex_.loc(),
                         concat("shape expression evaluates to ", out,
                                "; must be >= 1"));
            return false;
        }
        return true;
    }

    bool
    parseShapeTerm(int64_t& out)
    {
        const Token tok = lex_.peek();
        if (tok.kind == TokenKind::Number) {
            int64_t value = 0;
            if (!parseIntChecked(tok.text, value) ||
                value > limits_.maxExtent) {
                diags_.error("W505", tok.loc,
                             concat("shape constant ", quoted(tok.text),
                                    " is not a representable extent"));
                return false;
            }
            lex_.next();
            if (lex_.peek().isPunct('*')) {
                lex_.next();
                int64_t extent = 0;
                if (!parseDimExtent(extent))
                    return false;
                if (!mulCapped(value, extent, limits_.maxExtent, out)) {
                    diags_.error("W505", tok.loc,
                                 "shape term overflows the extent "
                                 "limit");
                    return false;
                }
                return true;
            }
            out = value;
            return true;
        }
        if (tok.kind == TokenKind::Word)
            return parseDimExtent(out);
        diags_.error("W505", tok.loc,
                     concat("expected a dim name or integer in shape "
                            "expression, got ",
                            describe(tok)));
        return false;
    }

    bool
    parseDimExtent(int64_t& out)
    {
        const Token tok = lex_.peek();
        if (tok.kind != TokenKind::Word) {
            diags_.error("W505", tok.loc,
                         concat("expected a dim name, got ",
                                describe(tok)));
            return false;
        }
        const DimId dim = workload_.findDim(tok.text);
        if (dim < 0) {
            diags_.error("W501", tok.loc,
                         concat("unknown dim ", quoted(tok.text)));
            return false;
        }
        lex_.next();
        out = workload_.dim(dim).extent;
        return true;
    }

    void
    parseOp()
    {
        const Token name = lex_.peek();
        if (name.kind != TokenKind::Word) {
            diags_.error("W503", name.loc,
                         concat("expected an op name, got ",
                                describe(name)));
            sync();
            return;
        }
        lex_.next();
        const Token kindTok = lex_.peek();
        ComputeKind kind = ComputeKind::Matrix;
        if (kindTok.is("matrix")) {
            lex_.next();
        } else if (kindTok.is("vector")) {
            lex_.next();
            kind = ComputeKind::Vector;
        } else {
            diags_.error("W503", kindTok.loc,
                         concat("expected 'matrix' or 'vector' for op "
                                "'",
                                name.text, "', got ",
                                describe(kindTok)));
        }
        if (lex_.peek().isPunct('{')) {
            lex_.next();
        } else {
            diags_.error("W503", lex_.loc(),
                         concat("expected '{' opening the body of op "
                                "'",
                                name.text, "', got ",
                                describe(lex_.peek())));
            sync();
            return;
        }

        std::vector<DimId> dims;
        std::vector<DimId> reduce;
        double opsPerPoint = 1.0;
        std::vector<TensorAccess> accesses;
        bool bodyOk = true;
        while (true) {
            const Token tok = lex_.peek();
            if (tok.isEnd()) {
                diags_.error("W506", tok.loc,
                             concat("missing '}' closing op '",
                                    name.text, "'"));
                bodyOk = false;
                break;
            }
            if (tok.isPunct('}')) {
                lex_.next();
                break;
            }
            parseOpStatement(name.text, dims, reduce, opsPerPoint,
                             accesses);
        }
        if (!bodyOk)
            return;

        if (dims.empty()) {
            diags_.error("W507", name.loc,
                         concat("op '", name.text,
                                "' declares no dims"));
            return;
        }
        bool writes = false;
        for (const TensorAccess& access : accesses)
            writes = writes || access.isWrite;
        if (!writes) {
            diags_.warning("W507", name.loc,
                           concat("op '", name.text,
                                  "' writes no tensor"));
        }
        if (workload_.findOp(name.text) >= 0) {
            diags_.error("W504", name.loc,
                         concat("duplicate op ", quoted(name.text)));
            return;
        }
        // `dims` are the parallel iteration dims, `reduce` the
        // additional reduction dims; one dim cannot be both.
        for (DimId d : reduce) {
            if (std::find(dims.begin(), dims.end(), d) != dims.end()) {
                diags_.error("W507", name.loc,
                             concat("op '", name.text, "' lists dim '",
                                    workload_.dim(d).name,
                                    "' in both dims and reduce"));
                return;
            }
        }
        // Every subscript dim must be one the op iterates or reduces;
        // Operator::addAccess treats a violation as an internal error.
        for (const TensorAccess& access : accesses) {
            for (const auto& expr : access.projection) {
                for (const AccessTerm& term : expr) {
                    if (std::find(dims.begin(), dims.end(), term.dim) ==
                            dims.end() &&
                        std::find(reduce.begin(), reduce.end(),
                                  term.dim) == reduce.end()) {
                        diags_.error(
                            "W511", name.loc,
                            concat("op '", name.text,
                                   "' subscripts tensor '",
                                   workload_.tensor(access.tensor).name,
                                   "' with dim '",
                                   workload_.dim(term.dim).name,
                                   "' which is not in its dims/reduce "
                                   "lists"));
                        return;
                    }
                }
            }
        }
        if (diags_.hasErrors())
            return; // Earlier statement errors; skip the build.

        Operator op(name.text, kind, opsPerPoint);
        for (DimId d : dims)
            op.addDim(d, false);
        for (DimId d : reduce)
            op.addDim(d, true);
        for (TensorAccess& access : accesses)
            op.addAccess(std::move(access));
        if (countEntity(name.loc))
            workload_.addOp(std::move(op));
    }

    void
    parseOpStatement(const std::string& opName, std::vector<DimId>& dims,
                     std::vector<DimId>& reduce, double& opsPerPoint,
                     std::vector<TensorAccess>& accesses)
    {
        const Token key = lex_.next();
        if (key.is("dims")) {
            parseDimList(dims);
        } else if (key.is("reduce")) {
            parseDimList(reduce);
        } else if (key.is("ops_per_point")) {
            const Token tok = lex_.peek();
            int64_t value = 0;
            if (tok.kind == TokenKind::Number &&
                parseIntChecked(tok.text, value) && value >= 1 &&
                value <= 1 << 20) {
                lex_.next();
                opsPerPoint = double(value);
            } else {
                diags_.error("W503", tok.loc,
                             concat("expected a small positive integer "
                                    "for ops_per_point, got ",
                                    describe(tok)));
                if (tok.kind == TokenKind::Number)
                    lex_.next();
            }
        } else if (key.is("read") || key.is("write")) {
            parseAccess(opName, key.is("write"), accesses);
        } else {
            diags_.error("W502", key.loc,
                         concat("unknown op key ", describe(key)));
            sync();
        }
    }

    /** Comma-separated dim names, terminated by the next keyword. */
    void
    parseDimList(std::vector<DimId>& out)
    {
        while (true) {
            const Token tok = lex_.peek();
            if (tok.kind != TokenKind::Word) {
                diags_.error("W503", tok.loc,
                             concat("expected a dim name, got ",
                                    describe(tok)));
                return;
            }
            const DimId dim = workload_.findDim(tok.text);
            if (dim < 0) {
                diags_.error("W501", tok.loc,
                             concat("unknown dim ", quoted(tok.text)));
            } else if (std::find(out.begin(), out.end(), dim) !=
                       out.end()) {
                diags_.error("W504", tok.loc,
                             concat("duplicate dim ",
                                    quoted(tok.text)));
            } else {
                out.push_back(dim);
            }
            lex_.next();
            if (!lex_.peek().isPunct(','))
                return;
            lex_.next();
        }
    }

    void
    parseAccess(const std::string& opName, bool isWrite,
                std::vector<TensorAccess>& accesses)
    {
        const Token name = lex_.peek();
        if (name.kind != TokenKind::Word) {
            diags_.error("W503", name.loc,
                         concat("expected a tensor name, got ",
                                describe(name)));
            sync();
            return;
        }
        lex_.next();
        TensorAccess access;
        access.isWrite = isWrite;
        access.tensor = workload_.findTensor(name.text);
        bool ok = true;
        if (access.tensor < 0) {
            diags_.error("W501", name.loc,
                         concat("unknown tensor ", quoted(name.text)));
            ok = false;
        }
        if (!lex_.peek().isPunct('[')) {
            diags_.error("W503", lex_.loc(),
                         concat("expected '[' opening the subscript "
                                "of '",
                                name.text, "', got ",
                                describe(lex_.peek())));
            sync();
            return;
        }
        lex_.next();
        if (!parseAccessList(access.projection))
            ok = false;
        if (lex_.peek().is("accumulate")) {
            lex_.next();
            if (isWrite) {
                access.isUpdate = true;
            } else {
                diags_.error("W503", name.loc,
                             "'accumulate' only applies to writes");
            }
        }
        if (!ok)
            return;
        if (access.tensor >= 0 &&
            access.projection.size() !=
                workload_.tensor(access.tensor).rank()) {
            diags_.error("W509", name.loc,
                         concat("op '", opName, "' accesses '",
                                name.text, "' with ",
                                access.projection.size(),
                                " subscript(s) but the tensor has "
                                "rank ",
                                workload_.tensor(access.tensor).rank()));
            return;
        }
        // Producer-before-consumer DAG order: a read must hit a pure
        // input or an already-built op's output; a write must be the
        // tensor's only producer.
        if (access.tensor >= 0) {
            const OpId producer = workload_.producerOf(access.tensor);
            if (isWrite && producer >= 0) {
                diags_.error("W510", name.loc,
                             concat("tensor '", name.text,
                                    "' is already written by op '",
                                    workload_.op(producer).name(),
                                    "'"));
                return;
            }
        }
        accesses.push_back(std::move(access));
    }

    bool
    parseAccessList(std::vector<std::vector<AccessTerm>>& projection)
    {
        if (lex_.peek().isPunct(']')) {
            lex_.next();
            return true;
        }
        bool ok = true;
        while (true) {
            std::vector<AccessTerm> terms;
            if (parseAccessExpr(terms)) {
                projection.push_back(std::move(terms));
            } else {
                ok = false;
                syncList();
            }
            const Token sep = lex_.peek();
            if (sep.isPunct(',')) {
                lex_.next();
                continue;
            }
            if (sep.isPunct(']')) {
                lex_.next();
                return ok;
            }
            diags_.error("W503", sep.loc,
                         concat("expected ',' or ']' in subscript "
                                "list, got ",
                                describe(sep)));
            return false;
        }
    }

    /** term ('+' term)*, term := DIM | INT '*' DIM. */
    bool
    parseAccessExpr(std::vector<AccessTerm>& terms)
    {
        while (true) {
            AccessTerm term;
            const Token tok = lex_.peek();
            if (tok.kind == TokenKind::Number) {
                int64_t coeff = 0;
                if (!parseIntChecked(tok.text, coeff) || coeff < 1 ||
                    coeff > limits_.maxExtent) {
                    diags_.error("W505", tok.loc,
                                 concat("subscript coefficient ",
                                        quoted(tok.text),
                                        " is not a positive "
                                        "representable integer"));
                    return false;
                }
                lex_.next();
                term.coeff = coeff;
                if (!lex_.peek().isPunct('*')) {
                    diags_.error("W505", lex_.loc(),
                                 concat("expected '*' after subscript "
                                        "coefficient, got ",
                                        describe(lex_.peek())));
                    return false;
                }
                lex_.next();
            }
            const Token dim = lex_.peek();
            if (dim.kind != TokenKind::Word) {
                diags_.error("W505", dim.loc,
                             concat("expected a dim name in subscript, "
                                    "got ",
                                    describe(dim)));
                return false;
            }
            term.dim = workload_.findDim(dim.text);
            if (term.dim < 0) {
                diags_.error("W501", dim.loc,
                             concat("unknown dim ", quoted(dim.text)));
                return false;
            }
            lex_.next();
            terms.push_back(term);
            if (!lex_.peek().isPunct('+'))
                return true;
            lex_.next();
        }
    }

    /** Skip to the next top-level statement keyword or block edge. */
    void
    sync()
    {
        int depth = 0;
        while (true) {
            const Token& tok = lex_.peek();
            if (tok.isEnd())
                return;
            if (depth == 0 &&
                (isStatementKey(tok) || tok.isPunct('}') ||
                 tok.isPunct('{'))) {
                return;
            }
            if (tok.isPunct('{'))
                ++depth;
            else if (tok.isPunct('}'))
                --depth;
            lex_.next();
        }
    }

    /** Skip to the next ','/']' (or a block edge) inside a list. */
    void
    syncList()
    {
        while (true) {
            const Token& tok = lex_.peek();
            if (tok.isEnd() || tok.isPunct(',') || tok.isPunct(']') ||
                tok.isPunct('{') || tok.isPunct('}')) {
                return;
            }
            lex_.next();
        }
    }

    static bool
    isStatementKey(const Token& tok)
    {
        return tok.kind == TokenKind::Word &&
               (tok.is("dim") || tok.is("tensor") || tok.is("op") ||
                tok.is("dims") || tok.is("reduce") || tok.is("read") ||
                tok.is("write") || tok.is("ops_per_point"));
    }

    DiagnosticEngine& diags_;
    const ParseLimits& limits_;
    SpecLexer lex_;
    Workload workload_;
    int64_t entities_ = 0;
    bool entityCapReported_ = false;
};

} // namespace

std::optional<Workload>
parseWorkloadSpec(const std::string& text, DiagnosticEngine& diags,
                  const ParseLimits& limits)
{
    return WorkloadParser(text, diags, limits).parse();
}

} // namespace tileflow
