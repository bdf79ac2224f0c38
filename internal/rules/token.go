// Package rules implements the paper's rule-based routing description
// language (Section 4.2): a declarative language of IF-THEN rules
// grouped into event-triggered rule bases, with finite-domain
// variables, indexed data accesses, predicate-logic quantifiers over
// finite sets, set-valued expressions, and event generation. The
// package provides the lexer, parser, semantic analyser and a
// reference evaluator; the companion package internal/core compiles
// programs to the ARON rule-interpreter hardware model and accounts
// its cost.
package rules

import "fmt"

// TokKind enumerates the lexical token kinds.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokKeyword // CONSTANT VARIABLE INPUT ON END IF THEN RETURN IN TO EXISTS FORALL AND OR NOT
	TokAssign  // <-
	TokLParen  // (
	TokRParen  // )
	TokLBrace  // {
	TokRBrace  // }
	TokComma   // ,
	TokSemi    // ;
	TokColon   // :
	TokBang    // !
	TokEq      // =
	TokNeq     // <>
	TokLt      // <
	TokLe      // <=
	TokGt      // >
	TokGe      // >=
	TokPlus    // +
	TokMinus   // -
	TokStar    // *
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	return fmt.Sprintf("%q@%d:%d", t.Text, t.Line, t.Col)
}

// keywords of the language, upper case as in the paper's examples.
var keywords = map[string]bool{
	"CONSTANT": true, "VARIABLE": true, "INPUT": true,
	"ON": true, "END": true, "IF": true, "THEN": true, "SUBBASE": true,
	"RETURN": true, "IN": true, "TO": true,
	"EXISTS": true, "FORALL": true,
	"AND": true, "OR": true, "NOT": true,
}

// Error is a positioned language-processing error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...interface{}) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenises src. Comments run from "--" to end of line.
func Lex(src string) ([]Token, error) {
	toks := make([]Token, 0, len(src)/4) // the builtin programs run 4.4 to 4.7 bytes a token
	line, col := 1, 1
	i := 0
	n := len(src)
	adv := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv(1)
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				adv(1)
			}
		case isAlpha(c):
			l0, c0 := line, col
			j := i
			for j < n && (isAlpha(src[j]) || isDigit(src[j])) {
				j++
			}
			word := src[i:j]
			adv(j - i)
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: word, Line: l0, Col: c0})
		case isDigit(c):
			l0, c0 := line, col
			j := i
			for j < n && isDigit(src[j]) {
				j++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[i:j], Line: l0, Col: c0})
			adv(j - i)
		default:
			l0, c0 := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			emit2 := func(k TokKind) {
				toks = append(toks, Token{Kind: k, Text: two, Line: l0, Col: c0})
				adv(2)
			}
			emit1 := func(k TokKind) {
				toks = append(toks, Token{Kind: k, Text: src[i : i+1], Line: l0, Col: c0})
				adv(1)
			}
			switch {
			case two == "<-":
				emit2(TokAssign)
			case two == "<=":
				emit2(TokLe)
			case two == "<>":
				emit2(TokNeq)
			case two == ">=":
				emit2(TokGe)
			case c == '(':
				emit1(TokLParen)
			case c == ')':
				emit1(TokRParen)
			case c == '{':
				emit1(TokLBrace)
			case c == '}':
				emit1(TokRBrace)
			case c == ',':
				emit1(TokComma)
			case c == ';':
				emit1(TokSemi)
			case c == ':':
				emit1(TokColon)
			case c == '!':
				emit1(TokBang)
			case c == '=':
				emit1(TokEq)
			case c == '<':
				emit1(TokLt)
			case c == '>':
				emit1(TokGt)
			case c == '+':
				emit1(TokPlus)
			case c == '-':
				emit1(TokMinus)
			case c == '*':
				emit1(TokStar)
			default:
				return nil, errAt(line, col, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Text: "", Line: line, Col: col})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
