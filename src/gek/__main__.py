from gek.cli import main
main()
